package memsys

import (
	"bytes"
	"testing"

	"rowhammer/internal/tensor"

	"rowhammer/internal/dram"
)

func newSystem(t *testing.T, sizeMB int) *System {
	t.Helper()
	mod, err := dram.NewModuleForSize(sizeMB<<20, dram.PaperDDR3(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(mod)
}

func TestAnonymousMmapReadWrite(t *testing.T) {
	sys := newSystem(t, 1)
	p := sys.NewProcess()
	base, err := p.Mmap(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(base+PageSize+8, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(base+PageSize+8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("read back %v", got)
	}
}

func TestMmapZeroesPages(t *testing.T) {
	sys := newSystem(t, 1)
	p := sys.NewProcess()
	// Dirty a frame, release it, remap; new mapping must be zeroed.
	base, _ := p.Mmap(1)
	p.Write(base, []byte{0xFF})
	frame, _ := p.FrameOf(base)
	p.MunmapPage(base)
	base2, _ := p.Mmap(1)
	frame2, _ := p.FrameOf(base2)
	if frame2 != frame {
		t.Fatalf("FILO cache should reuse frame %d, got %d", frame, frame2)
	}
	got, _ := p.Read(base2, 1)
	if got[0] != 0 {
		t.Fatal("anonymous mmap must zero the frame")
	}
}

func TestFrameCacheIsFILO(t *testing.T) {
	sys := newSystem(t, 1)
	p := sys.NewProcess()
	base, _ := p.Mmap(3)
	frames := make([]int, 3)
	for i := range frames {
		frames[i], _ = p.FrameOf(base + i*PageSize)
	}
	// Free pages 0, 1, 2 in order → reallocation must be 2, 1, 0.
	for i := 0; i < 3; i++ {
		p.MunmapPage(base + i*PageSize)
	}
	if sys.FrameCacheDepth() != 3 {
		t.Fatalf("cache depth %d", sys.FrameCacheDepth())
	}
	for want := 2; want >= 0; want-- {
		nb, _ := p.Mmap(1)
		f, _ := p.FrameOf(nb)
		if f != frames[want] {
			t.Fatalf("expected frame %d, got %d (FILO violated)", frames[want], f)
		}
	}
}

func TestFileMapSharingAndCaching(t *testing.T) {
	sys := newSystem(t, 1)
	content := make([]byte, PageSize*2+100)
	for i := range content {
		content[i] = byte(i % 251)
	}
	sys.WriteFile("weights.bin", content)

	victim := sys.NewProcess()
	base, err := victim.MmapFile("weights.bin")
	if err != nil {
		t.Fatal(err)
	}
	got, err := victim.ReadMapped(base, len(content))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("file mapping content wrong")
	}

	// A second mapper shares the cached frames.
	other := sys.NewProcess()
	base2, _ := other.MmapFile("weights.bin")
	f1, _ := victim.FrameOf(base)
	f2, _ := other.FrameOf(base2)
	if f1 != f2 {
		t.Fatal("page cache must share frames between mappers")
	}
}

func TestPageCachePersistsAfterUnmapAndHidesCorruption(t *testing.T) {
	sys := newSystem(t, 1)
	content := make([]byte, PageSize*3)
	sys.WriteFile("model.bin", content)

	v := sys.NewProcess()
	base, _ := v.MmapFile("model.bin")
	phys, _ := v.Translate(base + 5)
	// Unmap (victim closes the file); page cache keeps the frame.
	for i := 0; i < 3; i++ {
		v.MunmapPage(base + i*PageSize)
	}

	// "Rowhammer" corrupts the cached frame directly in DRAM.
	sys.Module().Write(phys, 0x80)

	// Next load is served from the cache: corruption visible in memory…
	v2 := sys.NewProcess()
	base2, _ := v2.MmapFile("model.bin")
	got, _ := v2.Read(base2+5, 1)
	if got[0] != 0x80 {
		t.Fatal("page cache should serve the corrupted copy")
	}
	// …but the on-disk file is untouched (stealth property).
	disk, _ := sys.ReadFileFromDisk("model.bin")
	if disk[5] != 0 {
		t.Fatal("disk copy must stay pristine")
	}
	// After eviction the clean copy returns.
	if err := sys.EvictFile("model.bin"); err != nil {
		t.Fatal(err)
	}
	v3 := sys.NewProcess()
	base3, _ := v3.MmapFile("model.bin")
	got3, _ := v3.Read(base3+5, 1)
	if got3[0] != 0 {
		t.Fatal("eviction must drop the corrupted copy")
	}
}

func TestMassageFileMappingPlacesPages(t *testing.T) {
	sys := newSystem(t, 2)
	filePages := 8
	content := make([]byte, filePages*PageSize)
	sys.WriteFile("w.bin", content)

	attacker := sys.NewProcess()
	bufPages := 32
	bufBase, err := attacker.Mmap(bufPages)
	if err != nil {
		t.Fatal(err)
	}
	// The attacker picks arbitrary buffer pages as targets.
	assignment := []int{17, 3, 25, 9, 30, 1, 12, 21}
	wantFrames := make([]int, filePages)
	for i, bp := range assignment {
		wantFrames[i], _ = attacker.FrameOf(bufBase + bp*PageSize)
	}

	if err := MassageFileMapping(attacker, bufBase, assignment); err != nil {
		t.Fatal(err)
	}

	victim := sys.NewProcess()
	base, err := victim.MmapFile("w.bin")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < filePages; i++ {
		f, _ := victim.FrameOf(base + i*PageSize)
		if f != wantFrames[i] {
			t.Fatalf("file page %d on frame %d, want %d", i, f, wantFrames[i])
		}
	}
}

func TestMassageRejectsDuplicateAssignment(t *testing.T) {
	sys := newSystem(t, 1)
	attacker := sys.NewProcess()
	bufBase, _ := attacker.Mmap(4)
	if err := MassageFileMapping(attacker, bufBase, []int{1, 1}); err == nil {
		t.Fatal("duplicate assignment must fail")
	}
}

func TestTranslateUnmappedFails(t *testing.T) {
	sys := newSystem(t, 1)
	p := sys.NewProcess()
	if _, err := p.Translate(0x123456); err == nil {
		t.Fatal("expected translation fault")
	}
	if err := p.MunmapPage(0x123456); err == nil {
		t.Fatal("expected unmap fault")
	}
}

func TestOutOfMemory(t *testing.T) {
	sys := newSystem(t, 1) // 256 frames
	p := sys.NewProcess()
	if _, err := p.Mmap(sys.NumFrames() + 1); err == nil {
		t.Fatal("expected ErrNoMemory")
	}
	// Rollback must leave everything free for a successful retry.
	if _, err := p.Mmap(sys.NumFrames()); err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
}

func TestCrossPageReadWriteRejected(t *testing.T) {
	sys := newSystem(t, 1)
	p := sys.NewProcess()
	base, _ := p.Mmap(2)
	if _, err := p.Read(base+PageSize-2, 4); err == nil {
		t.Fatal("cross-page Read must fail")
	}
	if err := p.Write(base+PageSize-2, []byte{1, 2, 3, 4}); err == nil {
		t.Fatal("cross-page Write must fail")
	}
	// ReadMapped handles the boundary.
	if _, err := p.ReadMapped(base+PageSize-2, 4); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFileInvalidatesCache(t *testing.T) {
	sys := newSystem(t, 1)
	sys.WriteFile("f", make([]byte, PageSize))
	p := sys.NewProcess()
	base, _ := p.MmapFile("f")
	_ = base
	newContent := make([]byte, PageSize)
	newContent[0] = 7
	sys.WriteFile("f", newContent)
	p2 := sys.NewProcess()
	b2, _ := p2.MmapFile("f")
	got, _ := p2.Read(b2, 1)
	if got[0] != 7 {
		t.Fatal("rewritten file must serve new contents")
	}
}

func TestFileSizeAndMissingFile(t *testing.T) {
	sys := newSystem(t, 1)
	sys.WriteFile("a", make([]byte, 123))
	if b, err := sys.ReadFileFromDisk("a"); err != nil || len(b) != 123 {
		t.Fatalf("ReadFileFromDisk = %d bytes, %v", len(b), err)
	}
	if _, err := sys.ReadFileFromDisk("nope"); err == nil {
		t.Fatal("missing file must error")
	}
	if err := sys.EvictFile("nope"); err == nil {
		t.Fatal("missing file must error")
	}
	p := sys.NewProcess()
	if _, err := p.MmapFile("nope"); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestFileCachedFrames(t *testing.T) {
	sys := newSystem(t, 1)
	sys.WriteFile("f", make([]byte, 2*PageSize))
	p := sys.NewProcess()
	base, _ := p.MmapFile("f")
	frames, err := sys.FileCachedFrames("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("cached %d pages, want 2", len(frames))
	}
	f0, _ := p.FrameOf(base)
	if frames[0] != f0 {
		t.Fatal("cached frame mismatch")
	}
}

func TestMmapHugeIsContiguousAndAligned(t *testing.T) {
	sys := newSystem(t, 8) // 2048 frames
	p := sys.NewProcess()
	base, err := p.MmapHuge(2)
	if err != nil {
		t.Fatal(err)
	}
	f0, _ := p.FrameOf(base)
	if f0%HugePageFrames != 0 {
		t.Fatalf("huge page frame %d not 2MB aligned", f0)
	}
	for i := 0; i < 2*HugePageFrames; i++ {
		f, err := p.FrameOf(base + i*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if f != f0+i {
			t.Fatalf("huge page not contiguous at page %d", i)
		}
	}
}

func TestMmapHugeExhaustion(t *testing.T) {
	sys := newSystem(t, 1) // 256 frames < 512
	p := sys.NewProcess()
	if _, err := p.MmapHuge(1); err == nil {
		t.Fatal("huge page on a 1MB system must fail")
	}
	// Failure must not leak frames.
	if _, err := p.Mmap(sys.NumFrames()); err != nil {
		t.Fatalf("frames leaked by failed huge mmap: %v", err)
	}
}

// TestHugePageStillHammerable validates the §VIII argument: a huge page
// spans many 8KB row chunks spread over every bank, and each chunk's
// rows remain adjacent to attacker-reachable rows.
func TestHugePageStillHammerable(t *testing.T) {
	sys := newSystem(t, 8)
	p := sys.NewProcess()
	base, err := p.MmapHuge(1)
	if err != nil {
		t.Fatal(err)
	}
	geom := sys.Module().Geometry()
	banks := map[int]bool{}
	for i := 0; i < HugePageFrames; i += 2 { // one probe per 8KB chunk
		phys, _ := p.Translate(base + i*PageSize)
		banks[geom.LocOf(phys).Bank] = true
	}
	// A 2MB huge page (256 chunks) must spread over all 16 banks, so
	// every chunk is an ordinary sandwichable row.
	if len(banks) != 16 {
		t.Fatalf("huge page touches %d banks, want 16", len(banks))
	}
}

// Property: any interleaving of anonymous mmap/munmap never maps one
// frame into two live pages.
func TestFrameNeverDoubleMapped(t *testing.T) {
	sys := newSystem(t, 2)
	p := sys.NewProcess()
	rng := tensor.NewRNG(99)
	var live []int // virtual page addresses
	owners := map[int]int{}
	for step := 0; step < 2000; step++ {
		if len(live) > 0 && rng.Float64() < 0.45 {
			i := rng.Intn(len(live))
			va := live[i]
			f, _ := p.FrameOf(va)
			delete(owners, f)
			if err := p.MunmapPage(va); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
			continue
		}
		va, err := p.Mmap(1)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := p.FrameOf(va)
		if prev, taken := owners[f]; taken {
			t.Fatalf("frame %d double-mapped (pages %#x and %#x) at step %d", f, prev, va, step)
		}
		owners[f] = va
		live = append(live, va)
	}
}
