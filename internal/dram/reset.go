package dram

// Module reuse. A fleet-scale campaign sweep churns through one
// multi-GB module per campaign; allocating a fresh sparse page store
// (state slice, dirty bitset, arena slabs) each time makes peak RSS and
// allocation cost scale with fleet size instead of concurrency. Reset
// returns a module to its pristine post-NewModule state while keeping
// the big allocations, so the campaign engine can pool whole simulated
// systems (memsys.System.Reset) across campaigns.

// Reset rewinds the module to the state NewModule(geom, profile, seed)
// would produce — every page constant zero, no dirty bits, fresh
// weak-cell and fault state — while retaining the page-state slice,
// dirty bitset and arena and patch slabs. Observable behavior after
// Reset is bit-identical to a fresh module: constant pages decode their
// fill byte in place, a new patch sets its base and entry count, and
// materialization fills the (possibly stale) arena cell before handing
// it out, so no prior campaign's bytes can leak. Not safe concurrently
// with any other operation on the module.
func (m *Module) Reset(profile DeviceProfile, seed int64) {
	m.profile = profile
	m.seed = seed
	m.weak.Store(newWeakTable(m.geom))
	m.passes = nil
	m.passesAdvanced.Store(false)
	m.fault = FaultModel{}
	m.store.reset()
}

// reset returns every page to constant zero and recycles all arena and
// patch cells while keeping the slabs mapped.
func (ps *pageStore) reset() {
	zero := encodeConst(0)
	for i := range ps.state {
		ps.state[i] = zero
	}
	for i := range ps.dirty {
		ps.dirty[i] = 0
	}
	ps.storeMu.Lock()
	ps.cells.reset()
	ps.patched.reset()
	ps.storeMu.Unlock()
}
