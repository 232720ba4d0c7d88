package memsys

import "fmt"

// Huge-page support for the §VIII discussion: a 2 MB huge page is 512
// physically contiguous frames. Even when the victim maps its model
// with huge pages, the DRAM controller fragments the region into 8 KB
// rows interleaved across banks, so each chunk can still be sandwiched
// and hammered — the paper's argument for why huge pages do not defend.

// HugePageFrames is the number of 4 KB frames in one 2 MB huge page.
const HugePageFrames = 512

// MmapHuge maps npages huge pages (npages × 512 frames), each backed by
// physically contiguous frames, and returns the base virtual address.
// It bypasses the per-CPU frame cache (huge pages come from the buddy
// allocator's high orders) and fails if no aligned contiguous run
// exists.
func (p *Process) MmapHuge(npages int) (int, error) {
	base := p.nextVPage
	p.ensurePT(base + npages*HugePageFrames)
	allocated := 0
	for hp := 0; hp < npages; hp++ {
		start, err := p.sys.findContiguousFrames(HugePageFrames)
		if err != nil {
			// Roll back previous huge pages.
			for i := 0; i < allocated; i++ {
				entry := p.pt[base+i]
				p.pt[base+i].frame = -1
				p.sys.setFrameFree(int(entry.frame), true)
			}
			return 0, fmt.Errorf("memsys: huge page %d: %w", hp, err)
		}
		for i := 0; i < HugePageFrames; i++ {
			f := start + i
			p.sys.setFrameFree(f, false)
			p.zeroFrame(f)
			p.setEntry(base+allocated, ptEntry{frame: int32(f), fileID: -1})
			allocated++
		}
	}
	p.nextVPage += allocated
	return base * PageSize, nil
}

// findContiguousFrames locates a run of n free frames aligned to n (the
// buddy-allocator alignment huge pages require). Frames sitting in the
// per-CPU cache are not eligible (they are considered in-flight). The
// free check is word-wise over the bitset, so a multi-GB module scans in
// a few thousand word compares.
func (s *System) findContiguousFrames(n int) (int, error) {
	cached := make(map[int]bool, len(s.frameCache))
	for _, f := range s.frameCache {
		cached[f] = true
	}
	for start := 0; start+n <= s.nframes; start += n {
		if !s.rangeFree(start, n) {
			continue
		}
		ok := true
		for f := start; f < start+n; f++ {
			if cached[f] {
				ok = false
				break
			}
		}
		if ok {
			return start, nil
		}
	}
	return 0, fmt.Errorf("memsys: no aligned run of %d contiguous frames", n)
}

// rangeFree reports whether every frame in [start, start+n) is free,
// checking 64 frames per word on aligned spans.
func (s *System) rangeFree(start, n int) bool {
	f := start
	for f < start+n {
		if f&63 == 0 && start+n-f >= 64 {
			if s.free[f>>6] != ^uint64(0) {
				return false
			}
			f += 64
			continue
		}
		if !s.frameFree(f) {
			return false
		}
		f++
	}
	return true
}
