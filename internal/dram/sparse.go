package dram

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"rowhammer/internal/tensor"
)

// Sparse page store. A multi-GB module cannot back its whole geometry
// with one dense []byte (16 GB of zeroes for a 4M-page DIMM), so
// storage is tracked per 4 KB page — half a DRAM row, the granularity
// both the OS paths (memsys frames) and the templating engine operate
// at. A page is in one of three states, encoded in state[p]:
//
//   - constant, encodeConst(c) in [-256, -1]: the whole page reads as
//     byte c. Every page starts as constant 0x00 and reads of it never
//     allocate.
//   - patched, encodePatch(slot) below -256: a base byte plus a short
//     sorted list of (offset, xor-mask) entries in a 256 B patch cell.
//     A hammer flip on a constant page adds an entry instead of copying
//     the page, so a victim page holding a few dozen flips costs 1/16
//     of a page.
//   - materialized, state >= 0: a slot into the row arena, 2 MB slabs
//     carved into page-sized cells. A page materializes only when its
//     patch overflows (patchCap differing bytes) or a write that is not
//     its base byte lands on it; the cell is filled with the base and
//     the patch entries are applied.
//
// FillPage with a constant (every templating fill) *demotes* a patched
// or materialized page back to constant state and recycles its cell, so
// steady-state profiling keeps only pages currently holding flips
// resident.
//
// Peak memory therefore scales with the flips actually held, not the
// geometry; the fixed overhead is 4 bytes of state plus one dirty bit
// per page (~0.1% of capacity).
//
// Concurrency contract (unchanged from the dense design): concurrent
// operations on disjoint pages are safe — the phase-colored templating
// engine's invariant. state[p] and the cell it names are only accessed
// by the page's current owner; the shared allocators are storeMu-guarded,
// the slab tables are fixed-length (lookups read them without the lock)
// and the dirty bitset is atomic, so materialization from concurrent
// experiments never races.

// pageShift/pageMask index the 4 KB page of a physical byte address.
const (
	pageShift = 12
	pageMask  = OSPageBytes - 1
)

// arenaSlabPages is the arena slab granularity: 512 pages = 2 MB.
const arenaSlabPages = 512

// patchCap is how many differing bytes a patched page holds: a cell is
// its base byte, its entry count and patchCap 4-byte entries, 256 B.
const patchCap = 63

// patchSlabCells is the patch slab granularity: 256 cells = 64 KB.
const patchSlabCells = 256

// patchCell is a patched page's contents: every byte reads as base
// except those the entries name. Each entry is off<<8 | mask for a byte
// reading base^mask; entries ascend by offset and no mask is zero.
type patchCell struct {
	base byte
	n    uint8
	ent  [patchCap]uint32
}

type patchSlab [patchSlabCells]patchCell

// pageStore is the sparse backing of a Module.
type pageStore struct {
	state []int32  // per page: see the three states above
	dirty []uint64 // bitset: page ever diverged from the zero fill

	storeMu sync.Mutex
	slabs   [][]byte     // fixed-length; slabs allocated on demand
	patches []*patchSlab // fixed-length; slabs allocated on demand
	cells   cellPool     // arena cells, one per materialized page
	patched cellPool     // patch cells, one per patched page

	// dense forces the reference behavior: every fill materializes and
	// nothing demotes or patches, so all accesses run the arena-backed
	// slow paths. NewDenseModule uses it as the byte-identity oracle for
	// the sparse fast paths.
	dense bool
}

// cellPool hands out the cells of one slab table, recycled cells first.
// Guarded by storeMu.
type cellPool struct {
	free []int32
	next int32 // cells below next have been handed out at least once
	live int
}

func (c *cellPool) get() int32 {
	c.live++
	if n := len(c.free); n > 0 {
		slot := c.free[n-1]
		c.free = c.free[:n-1]
		return slot
	}
	c.next++
	return c.next - 1
}

func (c *cellPool) put(slot int32) {
	c.free = append(c.free, slot)
	c.live--
}

func (c *cellPool) reset() {
	c.free = c.free[:0]
	c.next = 0
	c.live = 0
}

// constFloor is the lowest constant-state encoding; states below it
// name patch cells.
const constFloor = -256

func encodeConst(c byte) int32     { return -1 - int32(c) }
func decodeConst(s int32) byte     { return byte(-(s + 1)) }
func encodePatch(slot int32) int32 { return constFloor - 1 - slot }
func decodePatch(s int32) int32    { return constFloor - 1 - s }
func isConst(s int32) bool         { return s < 0 && s >= constFloor }

func newPageStore(size int, dense bool) *pageStore {
	npages := size / OSPageBytes
	ps := &pageStore{
		state:   make([]int32, npages),
		dirty:   make([]uint64, (npages+63)/64),
		slabs:   make([][]byte, (npages+arenaSlabPages-1)/arenaSlabPages),
		patches: make([]*patchSlab, (npages+patchSlabCells-1)/patchSlabCells),
		dense:   dense,
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

// patch returns the patch cell of a patched state.
func (ps *pageStore) patch(s int32) *patchCell {
	slot := decodePatch(s)
	return &ps.patches[slot/patchSlabCells][slot%patchSlabCells]
}

// byteAt returns byte off of page p.
func (ps *pageStore) byteAt(p, off int) byte {
	s := ps.state[p]
	switch {
	case s >= 0:
		return ps.pageBytes(s)[off]
	case isConst(s):
		return decodeConst(s)
	default:
		return ps.patch(s).at(off)
	}
}

// materialize gives page p a writable arena cell holding its current
// contents. The allocator bookkeeping is mutex-guarded; the fill
// happens on the caller-owned cell outside the lock. A patch is copied
// out before its cell goes back on the free list, where a concurrent
// experiment may take it.
func (ps *pageStore) materialize(p int) []byte {
	s := ps.state[p]
	if s >= 0 {
		return ps.pageBytes(s)
	}
	from := patchCell{base: decodeConst(s)}
	if !isConst(s) {
		from = *ps.patch(s)
	}
	ps.storeMu.Lock()
	if !isConst(s) {
		ps.patched.put(decodePatch(s))
	}
	slot := ps.cells.get()
	if si := int(slot) / arenaSlabPages; ps.slabs[si] == nil {
		ps.slabs[si] = make([]byte, arenaSlabPages*OSPageBytes)
	}
	ps.storeMu.Unlock()
	b := ps.pageBytes(slot)
	tensor.FillBytes(b, from.base)
	from.applyTo(b, 0)
	ps.state[p] = slot
	ps.markDirty(p)
	return b
}

// flipBits xors mask into byte off of page p. A constant or patched
// page takes a patch entry instead of an arena copy and materializes
// only when its patch is full; the dense oracle always materializes.
func (ps *pageStore) flipBits(p, off int, mask byte) {
	s := ps.state[p]
	switch {
	case s >= 0:
		ps.pageBytes(s)[off] ^= mask
		return
	case ps.dense: // the oracle materializes every page it flips
	case isConst(s):
		ps.storeMu.Lock()
		slot := ps.patched.get()
		if si := int(slot) / patchSlabCells; ps.patches[si] == nil {
			ps.patches[si] = new(patchSlab)
		}
		ps.storeMu.Unlock()
		ps.state[p] = encodePatch(slot)
		c := ps.patch(ps.state[p])
		c.base, c.n = decodeConst(s), 0
		c.xor(off, mask)
		ps.markDirty(p)
		return
	default:
		if ps.patch(s).xor(off, mask) {
			return
		}
	}
	ps.materialize(p)[off] ^= mask
}

// demote returns page p to constant state c, recycling any cell it held.
func (ps *pageStore) demote(p int, c byte) {
	if s := ps.state[p]; !isConst(s) {
		ps.storeMu.Lock()
		if s >= 0 {
			ps.cells.put(s)
		} else {
			ps.patched.put(decodePatch(s))
		}
		ps.storeMu.Unlock()
	}
	ps.state[p] = encodeConst(c)
	if c != 0 {
		ps.markDirty(p)
	}
}

// find returns the index of the first entry at or after offset off.
func (c *patchCell) find(off int) int {
	key := uint32(off) << 8
	lo, hi := 0, int(c.n)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.ent[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// at returns the byte at offset off.
func (c *patchCell) at(off int) byte {
	if i := c.find(off); i < int(c.n) && int(c.ent[i]>>8) == off {
		return c.base ^ byte(c.ent[i])
	}
	return c.base
}

// xor flips the bits of mask in the byte at offset off, dropping an
// entry whose mask cancels. It reports false, changing nothing, when
// that byte needs a new entry and the cell is full.
func (c *patchCell) xor(off int, mask byte) bool {
	n := int(c.n)
	i := c.find(off)
	if i < n && int(c.ent[i]>>8) == off {
		if e := c.ent[i] ^ uint32(mask); byte(e) != 0 {
			c.ent[i] = e
		} else {
			copy(c.ent[i:n-1], c.ent[i+1:n])
			c.n--
		}
		return true
	}
	if n == patchCap {
		return false
	}
	copy(c.ent[i+1:n+1], c.ent[i:n])
	c.ent[i] = uint32(off)<<8 | uint32(mask)
	c.n++
	return true
}

// clearRange drops the entries in [lo, hi): those bytes read as the
// base again.
func (c *patchCell) clearRange(lo, hi int) {
	i, j := c.find(lo), c.find(hi)
	copy(c.ent[i:], c.ent[j:c.n])
	c.n -= uint8(j - i)
}

// applyTo xors the entries in [off, off+len(b)) into b, which holds the
// page's bytes from offset off.
func (c *patchCell) applyTo(b []byte, off int) {
	for _, e := range c.ent[c.find(off):c.n] {
		o := int(e>>8) - off
		if o >= len(b) {
			return
		}
		b[o] ^= byte(e)
	}
}

// diffEntries calls fn(off, b^v) for every byte b that differs from v
// of a page reading base except at the patch entries ent, in ascending
// offset order.
func diffEntries(base byte, ent []uint32, v byte, fn func(off int, diff byte)) {
	if base == v {
		for _, e := range ent {
			fn(int(e>>8), byte(e))
		}
		return
	}
	d := base ^ v
	for off := 0; off < OSPageBytes; off++ {
		x := d
		if len(ent) > 0 && int(ent[0]>>8) == off {
			x ^= byte(ent[0])
			ent = ent[1:]
		}
		if x != 0 {
			fn(off, x)
		}
	}
}

// ResidentPages reports how many pages currently hold materialized
// arena cells. Patched pages hold a 256 B patch cell instead and are
// not counted; ArenaBytes covers both.
func (m *Module) ResidentPages() int {
	m.store.storeMu.Lock()
	defer m.store.storeMu.Unlock()
	return m.store.cells.live
}

// ArenaBytes reports the bytes of arena and patch slabs allocated so
// far (a high-water mark: recycled cells are reused, not returned to
// the OS).
func (m *Module) ArenaBytes() int {
	m.store.storeMu.Lock()
	defer m.store.storeMu.Unlock()
	n := 0
	for _, s := range m.store.slabs {
		n += len(s)
	}
	for _, s := range m.store.patches {
		if s != nil {
			n += int(unsafe.Sizeof(*s))
		}
	}
	return n
}

// TouchedPages counts pages that ever diverged from the zero fill —
// patched or materialized now or in the past, or holding a non-zero
// constant.
func (m *Module) TouchedPages() int {
	n := 0
	for i := range m.store.dirty {
		n += bits.OnesCount64(atomic.LoadUint64(&m.store.dirty[i]))
	}
	return n
}
