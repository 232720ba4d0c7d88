package dram

import "sync"

// Module pooling. A fleet-scale campaign sweep churns through one
// multi-GB module per campaign; allocating a fresh sparse page store
// (state slice, dirty bitset, arena slabs) each time makes peak RSS and
// allocation cost scale with fleet size instead of concurrency. Reset
// returns a module to its pristine post-NewModule state while keeping
// the big allocations, and ModulePool recycles reset modules across
// campaigns keyed by geometry — the "pooled module arenas" of the
// campaign engine.

// Reset rewinds the module to the state NewModule(geom, profile, seed)
// would produce — every page constant zero, no dirty bits, fresh
// weak-cell and fault state — while retaining the page-state slice,
// dirty bitset and arena slabs. Observable behavior after Reset is
// bit-identical to a fresh module: constant pages decode their fill
// byte in place and materialization fills the (possibly stale) arena
// cell before handing it out, so no prior campaign's bytes can leak.
// Not safe concurrently with any other operation on the module.
func (m *Module) Reset(profile DeviceProfile, seed int64) {
	m.profile = profile
	m.seed = seed
	m.weak.Store(newWeakTable(m.geom))
	m.passes = nil
	m.fault = FaultModel{}
	m.store.reset()
}

// reset returns every page to constant zero and recycles all arena
// cells while keeping the slabs mapped.
func (ps *pageStore) reset() {
	zero := encodeConst(0)
	for i := range ps.state {
		ps.state[i] = zero
	}
	for i := range ps.dirty {
		ps.dirty[i] = 0
	}
	ps.storeMu.Lock()
	ps.freeSlots = ps.freeSlots[:0]
	ps.nextSlot = 0
	ps.resident = 0
	ps.storeMu.Unlock()
}

// ModulePool recycles sparse modules across campaigns. Get either
// resets a pooled module of the wanted geometry or builds a fresh one;
// Put returns a module for reuse. The pool never resets on Put — the
// caller may still read results — so Get pays the O(pages) state sweep,
// which is far cheaper than faulting in fresh multi-MB slices per
// campaign. Safe for concurrent use.
type ModulePool struct {
	mu   sync.Mutex
	free map[Geometry][]*Module
}

// NewModulePool returns an empty pool.
func NewModulePool() *ModulePool {
	return &ModulePool{free: make(map[Geometry][]*Module)}
}

// Get returns a pristine module with the given geometry, device profile
// and weak-cell seed — pooled and reset when available, freshly built
// otherwise.
func (p *ModulePool) Get(geom Geometry, profile DeviceProfile, seed int64) (*Module, error) {
	p.mu.Lock()
	var m *Module
	if list := p.free[geom]; len(list) > 0 {
		m = list[len(list)-1]
		p.free[geom] = list[:len(list)-1]
	}
	p.mu.Unlock()
	if m != nil {
		m.Reset(profile, seed)
		return m, nil
	}
	return NewModule(geom, profile, seed)
}

// Put makes the module available for a future Get. The module must no
// longer be used by its previous owner. Dense (oracle) modules are not
// pooled: their storage is fully materialized by design and reusing it
// would defeat the byte-identity suites' purpose.
func (p *ModulePool) Put(m *Module) {
	if m == nil || m.store.dense {
		return
	}
	p.mu.Lock()
	p.free[m.geom] = append(p.free[m.geom], m)
	p.mu.Unlock()
}

// Idle reports how many modules currently sit in the pool.
func (p *ModulePool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, l := range p.free {
		n += len(l)
	}
	return n
}
