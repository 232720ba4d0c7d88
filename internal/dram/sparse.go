package dram

import (
	"sync"
	"sync/atomic"

	"rowhammer/internal/tensor"
)

// Sparse page store. A multi-GB module cannot back its whole geometry
// with one dense []byte (16 GB of zeroes for a 4M-page DIMM), so
// storage is tracked per 4 KB page — half a DRAM row, the granularity
// both the OS paths (memsys frames) and the templating engine operate
// at:
//
//   - state[p] < 0 encodes "the whole page reads as one constant byte"
//     (encodeConst/decodeConst). Every page starts as constant 0x00 and
//     reads of it never allocate.
//   - state[p] >= 0 is a slot into the row arena: 2 MB slabs carved
//     into page-sized cells, materialized copy-on-hammer — the first
//     bit flip (or non-constant write) a page takes copies its fill
//     pattern into a fresh arena cell and mutates that.
//   - FillPage with a constant (every templating fill) *demotes* a
//     materialized page back to constant state and recycles its arena
//     cell, so steady-state profiling keeps only pages currently
//     holding flips resident.
//
// Peak memory therefore scales with the rows actually touched, not the
// geometry; the fixed overhead is 4 bytes of state plus one dirty bit
// per page (~0.1% of capacity).
//
// Concurrency contract (unchanged from the dense design): concurrent
// operations on disjoint pages are safe — the phase-colored templating
// engine's invariant. state[p] is only accessed by the page's current
// owner; the shared arena allocator is storeMu-guarded and the dirty
// bitset is atomic, so materialization from concurrent experiments
// never races.

// pageShift/pageMask index the 4 KB page of a physical byte address.
const (
	pageShift = 12
	pageMask  = OSPageBytes - 1
)

// arenaSlabPages is the arena slab granularity: 512 pages = 2 MB.
const arenaSlabPages = 512

// pageStore is the sparse backing of a Module.
type pageStore struct {
	state []int32  // per page: >= 0 arena slot, < 0 constant byte
	dirty []uint64 // bitset: page ever diverged from the zero fill

	storeMu   sync.Mutex
	slabs     [][]byte // fixed-length; slabs allocated on demand
	freeSlots []int32  // recycled arena cells
	nextSlot  int32
	resident  int

	// dense forces the reference behavior: every fill materializes and
	// nothing demotes, so all accesses run the arena-backed slow paths.
	// NewDenseModule uses it as the byte-identity oracle for the sparse
	// fast paths.
	dense bool
}

func encodeConst(c byte) int32 { return -1 - int32(c) }
func decodeConst(s int32) byte { return byte(-(s + 1)) }

func newPageStore(size int, dense bool) *pageStore {
	npages := size / OSPageBytes
	ps := &pageStore{
		state: make([]int32, npages),
		dirty: make([]uint64, (npages+63)/64),
		slabs: make([][]byte, (npages+arenaSlabPages-1)/arenaSlabPages),
		dense: dense,
	}
	zero := encodeConst(0)
	for i := range ps.state {
		ps.state[i] = zero
	}
	return ps
}

func (ps *pageStore) markDirty(p int) {
	addr := &ps.dirty[p>>6]
	bit := uint64(1) << (uint(p) & 63)
	for {
		old := atomic.LoadUint64(addr)
		if old&bit != 0 || atomic.CompareAndSwapUint64(addr, old, old|bit) {
			return
		}
	}
}

// pageBytes returns the arena cell of a materialized slot.
func (ps *pageStore) pageBytes(slot int32) []byte {
	base := int(slot%arenaSlabPages) * OSPageBytes
	return ps.slabs[int(slot)/arenaSlabPages][base : base+OSPageBytes : base+OSPageBytes]
}

// materialize gives page p a writable arena cell holding its current
// contents (copy-on-hammer). The allocator bookkeeping is mutex-guarded;
// the fill happens on the caller-owned cell outside the lock.
func (ps *pageStore) materialize(p int) []byte {
	s := ps.state[p]
	if s >= 0 {
		return ps.pageBytes(s)
	}
	c := decodeConst(s)
	ps.storeMu.Lock()
	var slot int32
	if n := len(ps.freeSlots); n > 0 {
		slot = ps.freeSlots[n-1]
		ps.freeSlots = ps.freeSlots[:n-1]
	} else {
		slot = ps.nextSlot
		if si := int(slot) / arenaSlabPages; ps.slabs[si] == nil {
			ps.slabs[si] = make([]byte, arenaSlabPages*OSPageBytes)
		}
		ps.nextSlot++
	}
	ps.resident++
	ps.storeMu.Unlock()
	b := ps.pageBytes(slot)
	tensor.FillBytes(b, c)
	ps.state[p] = slot
	ps.markDirty(p)
	return b
}

// demote returns page p to constant state c, recycling its arena cell.
func (ps *pageStore) demote(p int, c byte) {
	if s := ps.state[p]; s >= 0 {
		ps.storeMu.Lock()
		ps.freeSlots = append(ps.freeSlots, s)
		ps.resident--
		ps.storeMu.Unlock()
	}
	ps.state[p] = encodeConst(c)
	if c != 0 {
		ps.markDirty(p)
	}
}

// ResidentPages reports how many pages currently hold materialized
// arena cells — the quantity peak RSS scales with.
func (m *Module) ResidentPages() int {
	m.store.storeMu.Lock()
	defer m.store.storeMu.Unlock()
	return m.store.resident
}

// ArenaBytes reports the bytes of arena slabs allocated so far (a
// high-water mark: demoted cells are recycled, not returned to the OS).
func (m *Module) ArenaBytes() int {
	m.store.storeMu.Lock()
	defer m.store.storeMu.Unlock()
	n := 0
	for _, s := range m.store.slabs {
		n += len(s)
	}
	return n
}

// TouchedPages counts pages that ever diverged from the zero fill —
// materialized now or in the past, or holding a non-zero constant.
func (m *Module) TouchedPages() int {
	n := 0
	for i := range m.store.dirty {
		n += popcount64(atomic.LoadUint64(&m.store.dirty[i]))
	}
	return n
}

func popcount64(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
