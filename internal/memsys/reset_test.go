package memsys

import (
	"reflect"
	"testing"

	"rowhammer/internal/dram"
)

// campaignTrace is what one miniature campaign observes.
type campaignTrace struct {
	bufFrames  []int // attacker buffer page → frame (−1 once unmapped)
	drained    []int // frames the drain remapped, in pop order
	fileFrames []int // victim file page → frame
	flips      []dram.FlipEvent
	file       []byte // the victim's mapped weight file after hammering
}

// driveCampaign runs the online sequence in miniature — anonymous
// buffer, frame-cache drain, weight file, Listing 1 massage, victim
// mmap, hammer around the victim's rows, readback — and records every
// frame, translation, flip and byte it sees.
func driveCampaign(t *testing.T, sys *System) campaignTrace {
	t.Helper()
	var tr campaignTrace
	attacker := sys.NewProcess()
	base, err := attacker.Mmap(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := attacker.FillPage(base+i*PageSize, 0xFF); err != nil {
			t.Fatal(err)
		}
	}
	for _, bp := range []int{60, 61, 62} {
		if err := attacker.MunmapPage(base + bp*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	dbase, n, err := attacker.DrainFrameCache()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		f, err := attacker.FrameOf(dbase + i*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		tr.drained = append(tr.drained, f)
	}

	file := make([]byte, 4*PageSize)
	for i := range file {
		file[i] = byte(i*7) | 0x81
	}
	sys.WriteFile("w.bin", file)
	if err := MassageFileMapping(attacker, base, []int{40, 7, 22, 13}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		f, err := attacker.FrameOf(base + i*PageSize)
		if err != nil {
			f = -1
		}
		tr.bufFrames = append(tr.bufFrames, f)
	}

	victim := sys.NewProcess()
	fbase, err := victim.MmapFile("w.bin")
	if err != nil {
		t.Fatal(err)
	}
	geom := sys.Module().Geometry()
	for i := 0; i < 4; i++ {
		phys, err := victim.Translate(fbase + i*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		tr.fileFrames = append(tr.fileFrames, phys/PageSize)
		loc := geom.LocOf(phys)
		if loc.Row > 0 && loc.Row < geom.RowsPerBank-1 {
			tr.flips = append(tr.flips, sys.Module().Hammer(loc.Bank, []int{loc.Row - 1, loc.Row + 1}, 1)...)
		}
	}
	if tr.file, err = victim.ReadMapped(fbase, len(file)); err != nil {
		t.Fatal(err)
	}
	return tr
}

func newSystemFor(t *testing.T, device dram.DeviceProfile, seed int64) *System {
	t.Helper()
	mod, err := dram.NewModuleForSize(8<<20, device, seed)
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(mod)
}

// TestSystemResetIdentity asserts a reset System behaves exactly like
// a fresh one of the new identity — same frames, translations, flips
// and bytes — whatever its previous life did, and that Reset really
// reuses the frame bitset and the page tables instead of reallocating
// them.
func TestSystemResetIdentity(t *testing.T) {
	want := driveCampaign(t, newSystemFor(t, dram.PaperDDR3(), 3))
	if len(want.flips) == 0 {
		t.Fatal("the campaign hammered no flips; the comparison would prove nothing")
	}

	for _, tc := range []struct {
		name   string
		device dram.DeviceProfile
		seed   int64
		fault  dram.FaultModel
	}{
		{"other device and seed", dram.PaperDDR4(), 5, dram.FaultModel{}},
		{"fault model dropped", dram.PaperDDR3(), 3, dram.FaultModel{FlipFailProb: 0.5, Seed: 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := newSystemFor(t, tc.device, tc.seed)
			sys.InjectFaults(tc.fault)
			driveCampaign(t, sys)
			// Leave more behind than the next life will use: an extra
			// file, an extra process, frames in the frame cache.
			sys.WriteFile("stale.bin", make([]byte, PageSize))
			extra := sys.NewProcess()
			xbase, err := extra.Mmap(8)
			if err != nil {
				t.Fatal(err)
			}
			if err := extra.MunmapPage(xbase); err != nil {
				t.Fatal(err)
			}
			bitset := &sys.free[0]
			tables := make(map[*ptEntry]bool)
			for _, p := range sys.procs {
				tables[&p.pt[0]] = true
			}

			sys.Reset(dram.PaperDDR3(), 3)
			if fm := sys.Module().FaultModelInstalled(); fm != (dram.FaultModel{}) {
				t.Fatalf("fault model survived Reset: %+v", fm)
			}
			if d := sys.FrameCacheDepth(); d != 0 {
				t.Fatalf("frame cache depth after Reset = %d, want 0", d)
			}
			if _, err := sys.ReadFileFromDisk("stale.bin"); err == nil {
				t.Fatal("file table survived Reset")
			}
			if _, err := extra.Translate(xbase + PageSize); err == nil {
				t.Fatal("a process from before Reset still translates")
			}

			got := driveCampaign(t, sys)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reset System differs from a fresh one:\n got %+v\nwant %+v", got, want)
			}
			if &sys.free[0] != bitset {
				t.Fatal("Reset reallocated the frame bitset")
			}
			for i, p := range sys.procs {
				if !tables[&p.pt[0]] {
					t.Fatalf("process %d after Reset did not reuse a page table", i)
				}
			}
		})
	}
}
