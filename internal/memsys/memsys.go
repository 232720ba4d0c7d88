// Package memsys simulates the operating-system memory plumbing the
// online attack phase exploits: a physical page-frame allocator with the
// Linux per-CPU page-frame cache (frames are reallocated in
// first-in-last-out order), anonymous and file-backed mmap/munmap, and a
// file page cache whose frames hold the weight file while the victim
// runs. Rowhammer corrupts frames directly in DRAM, so the page cache
// keeps serving the modified copy and the on-disk file stays pristine —
// the stealth property of §IV-B.
//
// The bookkeeping is sized for multi-GB modules (millions of frames):
// the free list is a bitset scanned word-wise, page tables are flat
// slices indexed by virtual page, and the file page cache maps file
// pages to frames through a dense slice — no per-page map entries
// anywhere on the translate or fault-in paths.
package memsys

import (
	"errors"
	"fmt"
	"math/bits"

	"rowhammer/internal/dram"
)

// PageSize is the OS page size.
const PageSize = 4096

// ErrNoMemory is returned when no free frame is available.
var ErrNoMemory = errors.New("memsys: out of physical frames")

// System owns the physical memory (backed by a simulated DRAM module),
// the frame allocator and the file page cache.
type System struct {
	module  *dram.Module
	nframes int

	// free is the buddy-allocator stand-in, one bit per frame (1 = free):
	// frames not in any mapping and not in the frame cache, allocated
	// lowest-first. Frames only leave the free list (released frames go
	// to the frame cache), so the lowest free index is monotone and
	// nextFree lets allocFrame resume its scan instead of rescanning from
	// zero.
	free     []uint64
	nextFree int
	// frameCache is the per-CPU page-frame cache: a FILO stack of
	// recently unmapped frames, consulted before the free list.
	frameCache []int

	files    map[string]*cachedFile
	fileList []*cachedFile // file ID → file, for page-table back-references

	// procs are the processes created since the last Reset; Reset
	// harvests their page tables into spare, which NewProcess reuses.
	procs []*Process
	spare [][]ptEntry
}

type cachedFile struct {
	id   int32
	data []byte // "disk" contents
	// frames maps file page → physical frame for cached pages, −1 when
	// the page is not resident.
	frames []int32
	cached int
}

// NewSystem wraps a DRAM module. Frames cover the module's full
// capacity.
func NewSystem(module *dram.Module) *System {
	n := module.Size() / PageSize
	s := &System{
		module:  module,
		nframes: n,
		free:    make([]uint64, (n+63)/64),
		files:   make(map[string]*cachedFile),
	}
	s.freeAll()
	return s
}

// Reset rewinds the System to the state
// NewSystem(dram.NewModule(geom, profile, seed)) would produce, for the
// module's own geometry: the module is reset (which also drops any
// fault model), every frame is free again, and the frame cache and file
// table are empty. The frame bitset and the page tables of the
// processes created so far are kept and reinitialized on reuse — the
// bitset is rewritten wholesale, a reused page table starts at length
// zero and ensurePT initializes every entry it grows into — so a reset
// System is observably identical to a fresh one. Processes created
// before Reset must not be used afterwards.
func (s *System) Reset(profile dram.DeviceProfile, seed int64) {
	s.module.Reset(profile, seed)
	s.freeAll()
	s.frameCache = s.frameCache[:0]
	clear(s.files)
	clear(s.fileList)
	s.fileList = s.fileList[:0]
	for _, p := range s.procs {
		s.spare = append(s.spare, p.pt[:0])
		p.pt = nil
	}
	clear(s.procs)
	s.procs = s.procs[:0]
}

// freeAll marks every frame free.
func (s *System) freeAll() {
	for i := range s.free {
		s.free[i] = ^uint64(0)
	}
	// Bits past nframes must stay clear or the word-wise scan would hand
	// out phantom frames.
	if r := s.nframes & 63; r != 0 {
		s.free[len(s.free)-1] = 1<<uint(r) - 1
	}
	s.nextFree = 0
}

// Module exposes the backing DRAM (the hammering interface).
func (s *System) Module() *dram.Module { return s.module }

// InjectFaults installs a probabilistic-firing fault model on the
// backing DRAM (see dram.FaultModel). The zero value removes it and
// restores fully deterministic hammering.
func (s *System) InjectFaults(f dram.FaultModel) { s.module.SetFaultModel(f) }

// NumFrames returns the physical frame count.
func (s *System) NumFrames() int { return s.nframes }

// FrameCacheDepth reports how many frames sit in the per-CPU cache.
func (s *System) FrameCacheDepth() int { return len(s.frameCache) }

func (s *System) frameFree(f int) bool {
	return s.free[f>>6]&(1<<(uint(f)&63)) != 0
}

func (s *System) setFrameFree(f int, v bool) {
	if v {
		s.free[f>>6] |= 1 << (uint(f) & 63)
	} else {
		s.free[f>>6] &^= 1 << (uint(f) & 63)
	}
}

// allocFrame pops the most recently freed frame from the per-CPU cache,
// falling back to the lowest free frame — the FILO behavior Listing 1
// exploits. The free-list scan skips 64 frames per word.
func (s *System) allocFrame() (int, error) {
	if n := len(s.frameCache); n > 0 {
		f := s.frameCache[n-1]
		s.frameCache = s.frameCache[:n-1]
		return f, nil
	}
	f := s.nextFree
	for f < s.nframes {
		if w := s.free[f>>6] >> (uint(f) & 63); w != 0 {
			f += bits.TrailingZeros64(w)
			s.setFrameFree(f, false)
			s.nextFree = f + 1
			return f, nil
		}
		f = (f>>6 + 1) << 6
	}
	return 0, ErrNoMemory
}

// releaseFrame pushes a frame onto the per-CPU cache.
func (s *System) releaseFrame(f int) {
	s.frameCache = append(s.frameCache, f)
}

// WriteFile stores file contents on the simulated disk. An existing
// cached copy is invalidated.
func (s *System) WriteFile(name string, data []byte) {
	id := int32(len(s.fileList))
	if old, ok := s.files[name]; ok {
		for _, f := range old.frames {
			if f >= 0 {
				s.releaseFrame(int(f))
			}
		}
		id = old.id
	}
	cf := &cachedFile{
		id:     id,
		data:   append([]byte(nil), data...),
		frames: newFrameIndex((len(data) + PageSize - 1) / PageSize),
	}
	s.files[name] = cf
	if int(id) == len(s.fileList) {
		s.fileList = append(s.fileList, cf)
	} else {
		s.fileList[id] = cf
	}
}

func newFrameIndex(npages int) []int32 {
	idx := make([]int32, npages)
	for i := range idx {
		idx[i] = -1
	}
	return idx
}

// ReadFileFromDisk returns the on-disk bytes, bypassing the page cache.
// Rowhammer corruption never reaches this copy.
func (s *System) ReadFileFromDisk(name string) ([]byte, error) {
	cf, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("memsys: no such file %q", name)
	}
	return append([]byte(nil), cf.data...), nil
}

// EvictFile drops a file's page-cache frames (e.g. memory pressure or a
// reboot); the next mmap re-reads from disk, erasing any in-memory
// corruption.
func (s *System) EvictFile(name string) error {
	cf, ok := s.files[name]
	if !ok {
		return fmt.Errorf("memsys: no such file %q", name)
	}
	for i, f := range cf.frames {
		if f >= 0 {
			s.releaseFrame(int(f))
			cf.frames[i] = -1
		}
	}
	cf.cached = 0
	return nil
}

// FileCachedFrames returns the page-cache frame of each cached file
// page (file page index → frame).
func (s *System) FileCachedFrames(name string) (map[int]int, error) {
	cf, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("memsys: no such file %q", name)
	}
	out := make(map[int]int, cf.cached)
	for fp, f := range cf.frames {
		if f >= 0 {
			out[fp] = int(f)
		}
	}
	return out, nil
}

// NewProcess creates a process with an empty address space.
func (s *System) NewProcess() *Process {
	p := &Process{
		sys:       s,
		nextVPage: 0x1000, // arbitrary non-zero base
	}
	if n := len(s.spare); n > 0 {
		p.pt = s.spare[n-1]
		s.spare = s.spare[:n-1]
	}
	s.procs = append(s.procs, p)
	return p
}

// ptEntry is one page-table slot. frame < 0 means unmapped; fileID ≥ 0
// names the backing file (index into System.fileList) with filePage its
// page within that file, fileID < 0 is anonymous.
type ptEntry struct {
	frame    int32
	fileID   int32
	filePage int32
}

// Process is one address space. Virtual addresses are byte addresses;
// mappings are tracked per page in a flat table indexed by virtual page
// number, so Translate — the hottest call in the templating engine — is
// one bounds check and one load.
type Process struct {
	sys       *System
	pt        []ptEntry
	nextVPage int
}

// ensurePT extends the page table with unmapped entries through virtual
// page n−1.
func (p *Process) ensurePT(n int) {
	if n <= len(p.pt) {
		return
	}
	old := len(p.pt)
	if cap(p.pt) >= n {
		p.pt = p.pt[:n]
	} else {
		grown := make([]ptEntry, n, n+n/2)
		copy(grown, p.pt)
		p.pt = grown
	}
	for i := old; i < len(p.pt); i++ {
		p.pt[i].frame = -1
	}
}

func (p *Process) setEntry(vp int, e ptEntry) {
	p.ensurePT(vp + 1)
	p.pt[vp] = e
}

// Mmap maps npages fresh anonymous zeroed pages and returns the base
// virtual address.
func (p *Process) Mmap(npages int) (int, error) {
	base := p.nextVPage
	p.ensurePT(base + npages)
	for i := 0; i < npages; i++ {
		f, err := p.sys.allocFrame()
		if err != nil {
			// Roll back partial mapping.
			for j := 0; j < i; j++ {
				p.MunmapPage((base + j) * PageSize)
			}
			return 0, err
		}
		p.zeroFrame(f)
		p.setEntry(base+i, ptEntry{frame: int32(f), fileID: -1})
	}
	p.nextVPage += npages
	return base * PageSize, nil
}

// zeroFrame zeroes a frame's contents. On a sparse module this demotes
// the page to constant state — O(1) and allocation-free, so mapping
// gigabytes of fresh anonymous memory costs only page-table updates.
func (p *Process) zeroFrame(f int) {
	p.sys.module.FillPage(f*PageSize, 0)
}

// DrainFrameCache maps every frame currently sitting in the per-CPU
// frame cache into this process as fresh anonymous zeroed pages, in
// FILO pop order, and returns the base virtual address of the drained
// mapping and how many pages were mapped. It is the bulk equivalent of
// calling Mmap(1) until FrameCacheDepth reaches zero — the
// page-frame-cache flush step before the Listing 1 massaging — without
// the per-call bookkeeping.
func (p *Process) DrainFrameCache() (int, int, error) {
	n := len(p.sys.frameCache)
	if n == 0 {
		return 0, 0, nil
	}
	base := p.nextVPage
	p.ensurePT(base + n)
	for i := 0; i < n; i++ {
		f, err := p.sys.allocFrame()
		if err != nil {
			for j := 0; j < i; j++ {
				p.MunmapPage((base + j) * PageSize)
			}
			return 0, 0, err
		}
		p.zeroFrame(f)
		p.setEntry(base+i, ptEntry{frame: int32(f), fileID: -1})
	}
	p.nextVPage += n
	return base * PageSize, n, nil
}

// MmapFile maps the whole file. Pages already in the page cache are
// shared; missing pages are read from disk into freshly allocated
// frames in file order — the behavior the Listing 1 massaging relies
// on.
func (p *Process) MmapFile(name string) (int, error) {
	cf, ok := p.sys.files[name]
	if !ok {
		return 0, fmt.Errorf("memsys: no such file %q", name)
	}
	npages := (len(cf.data) + PageSize - 1) / PageSize
	base := p.nextVPage
	p.ensurePT(base + npages)
	var page [PageSize]byte // stack scratch reused for every uncached page
	for i := 0; i < npages; i++ {
		f := cf.frames[i]
		if f < 0 {
			nf, err := p.sys.allocFrame()
			if err != nil {
				return 0, err
			}
			f = int32(nf)
			lo := i * PageSize
			hi := lo + PageSize
			if hi > len(cf.data) {
				hi = len(cf.data)
			}
			n := copy(page[:], cf.data[lo:hi])
			clear(page[n:]) // zero-fill tail of a partial final page
			p.sys.module.WriteRange(int(f)*PageSize, page[:])
			cf.frames[i] = f
			cf.cached++
		}
		p.setEntry(base+i, ptEntry{frame: f, fileID: cf.id, filePage: int32(i)})
	}
	p.nextVPage += npages
	return base * PageSize, nil
}

// MunmapPage unmaps the page containing vaddr. Anonymous frames go to
// the per-CPU frame cache; file-backed frames stay in the page cache
// (only the mapping is removed).
func (p *Process) MunmapPage(vaddr int) error {
	vp := vaddr / PageSize
	if vp < 0 || vp >= len(p.pt) || p.pt[vp].frame < 0 {
		return fmt.Errorf("memsys: page %#x not mapped", vaddr)
	}
	entry := p.pt[vp]
	p.pt[vp].frame = -1
	if entry.fileID < 0 {
		p.sys.releaseFrame(int(entry.frame))
	}
	return nil
}

// Translate returns the physical byte address backing vaddr.
func (p *Process) Translate(vaddr int) (int, error) {
	vp := vaddr / PageSize
	if vp >= 0 && vp < len(p.pt) {
		if f := p.pt[vp].frame; f >= 0 {
			return int(f)*PageSize + vaddr%PageSize, nil
		}
	}
	return 0, fmt.Errorf("memsys: page %#x not mapped", vaddr)
}

// FrameDigest hashes which physical frame backs each of the npages
// pages from the page-aligned vaddr, in page order. Two ranges digest
// equal only if they map the same frames in the same order, up to a
// hash collision; one differing frame always shows. An unmapped page is
// an error. Four interleaved FNV-1a lanes, folded in order at the end,
// keep the multiply chain off the critical path: 32768 pages digest in
// about 25 µs on a 2-vCPU Xeon.
func (p *Process) FrameDigest(vaddr, npages int) (uint64, error) {
	const prime = 0x100000001b3
	vp := vaddr / PageSize
	if vaddr%PageSize != 0 || vaddr < 0 || npages < 0 || vp+npages > len(p.pt) {
		return 0, fmt.Errorf("memsys: range %#x/%d pages not mapped", vaddr, npages)
	}
	pt := p.pt[vp : vp+npages]
	lanes := [4]uint64{0xcbf29ce484222325, 0x84222325cbf29ce4, 0x9ce484222325cbf2, 0x2325cbf29ce48422}
	for i, e := range pt {
		if e.frame < 0 {
			return 0, fmt.Errorf("memsys: page %#x not mapped", (vp+i)*PageSize)
		}
		lanes[i&3] = (lanes[i&3] ^ uint64(e.frame)) * prime
	}
	h := lanes[0]
	for _, l := range lanes[1:] {
		h = (h ^ l) * prime
	}
	return h, nil
}

// FrameOf returns the physical frame of the page containing vaddr.
// In the real attack this information is *not* directly available to an
// unprivileged process (pagemap needs root); the attacker recovers it
// through the SPOILER and row-conflict side channels in package
// sidechan. Tests and the experiment oracle use FrameOf for validation.
func (p *Process) FrameOf(vaddr int) (int, error) {
	phys, err := p.Translate(vaddr)
	if err != nil {
		return 0, err
	}
	return phys / PageSize, nil
}

// Read returns n bytes at vaddr (must lie within one page).
func (p *Process) Read(vaddr, n int) ([]byte, error) {
	buf := make([]byte, n)
	if err := p.ReadInto(vaddr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto copies len(buf) bytes at vaddr into buf (the range must lie
// within one page). It is the allocation-free twin of Read for the
// templating readback loop.
func (p *Process) ReadInto(vaddr int, buf []byte) error {
	phys, err := p.Translate(vaddr)
	if err != nil {
		return err
	}
	if vaddr%PageSize+len(buf) > PageSize {
		return fmt.Errorf("memsys: read crosses page boundary")
	}
	p.sys.module.ReadRangeInto(phys, buf)
	return nil
}

// Write stores buf at vaddr (must lie within one page). Writes through a
// file mapping modify only the cached copy (dirty write-back is not
// simulated; the attack never uses legitimate writes on the victim
// file).
func (p *Process) Write(vaddr int, buf []byte) error {
	phys, err := p.Translate(vaddr)
	if err != nil {
		return err
	}
	if vaddr%PageSize+len(buf) > PageSize {
		return fmt.Errorf("memsys: write crosses page boundary")
	}
	p.sys.module.WriteRange(phys, buf)
	return nil
}

// FillPage sets every byte of the mapped page at vaddr (page-aligned)
// to v. On a sparse module this is the O(1) demote path, so templating
// fills never materialize storage or stream 4 KB buffers.
func (p *Process) FillPage(vaddr int, v byte) error {
	if vaddr%PageSize != 0 {
		return fmt.Errorf("memsys: FillPage vaddr %#x not page aligned", vaddr)
	}
	phys, err := p.Translate(vaddr)
	if err != nil {
		return err
	}
	p.sys.module.FillPage(phys, v)
	return nil
}

// PageDiff calls fn(off, b^v) for every byte b of the mapped page
// containing vaddr that differs from v, in ascending offset order —
// the templating readback scan, which reads patched and arena pages in
// place (dram.Module.PageDiff).
func (p *Process) PageDiff(vaddr int, v byte, fn func(off int, diff byte)) error {
	phys, err := p.Translate(vaddr)
	if err != nil {
		return err
	}
	p.sys.module.PageDiff(phys, v, fn)
	return nil
}

// ReadByteAt returns the single byte at vaddr — the allocation-free probe
// the online verify loop uses to check whether a required flip fired.
func (p *Process) ReadByteAt(vaddr int) (byte, error) {
	phys, err := p.Translate(vaddr)
	if err != nil {
		return 0, err
	}
	return p.sys.module.Read(phys), nil
}

// ReadMapped reads a byte range that may span pages.
func (p *Process) ReadMapped(vaddr, n int) ([]byte, error) {
	out := make([]byte, n)
	off := 0
	for off < n {
		chunk := PageSize - (vaddr+off)%PageSize
		if chunk > n-off {
			chunk = n - off
		}
		if err := p.ReadInto(vaddr+off, out[off:off+chunk]); err != nil {
			return nil, err
		}
		off += chunk
	}
	return out, nil
}
