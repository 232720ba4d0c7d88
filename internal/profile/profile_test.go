package profile

import (
	"math"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
)

// TestEq2MatchesPaperNumbers reproduces the §IV-A2 worked example:
// n01+n10 = 34, S = 32768 bits, N = 32768 pages.
func TestEq2MatchesPaperNumbers(t *testing.T) {
	const (
		n = 34.0
		s = PageBits
		N = 32768
	)
	p1 := ProbTargetPageApprox(n, 1, s, N)
	if p1 < 0.999 {
		t.Fatalf("k=1: p = %v, want ≈1", p1)
	}
	p2 := ProbTargetPageApprox(n, 2, s, N)
	if math.Abs(p2-0.03)/0.03 > 0.2 {
		t.Fatalf("k+l=2: p = %v, want ≈0.03", p2)
	}
	p3 := ProbTargetPageApprox(n, 3, s, N)
	if math.Abs(p3-3e-5)/3e-5 > 0.25 {
		t.Fatalf("k+l=3: p = %v, want ≈3e-5", p3)
	}
}

func TestEq1VersusEq2(t *testing.T) {
	// Eq. 2 merges the two direction pools, so it upper-bounds the
	// direction-aware Eq. 1; both must stay in the same order of
	// magnitude for the paper's balanced case n01 = n10.
	exact := ProbTargetPage(17, 17, 1, 1, PageBits, 32768)
	approx := ProbTargetPageApprox(34, 2, PageBits, 32768)
	if exact > approx {
		t.Fatalf("Eq1 %v must not exceed Eq2 %v", exact, approx)
	}
	if approx/exact > 10 {
		t.Fatalf("Eq1 %v and Eq2 %v diverge beyond an order of magnitude", exact, approx)
	}
}

func TestProbMonotoneInPagesAndFlips(t *testing.T) {
	if !(ProbTargetPageApprox(34, 2, PageBits, 1000) < ProbTargetPageApprox(34, 2, PageBits, 100000)) {
		t.Fatal("probability must grow with page count")
	}
	if !(ProbTargetPageApprox(2, 1, PageBits, 4096) < ProbTargetPageApprox(100, 1, PageBits, 4096)) {
		t.Fatal("probability must grow with flips per page")
	}
	if !(ProbTargetPageApprox(34, 3, PageBits, 4096) < ProbTargetPageApprox(34, 1, PageBits, 4096)) {
		t.Fatal("probability must shrink with required offsets")
	}
}

func TestProbNegativeProductClamped(t *testing.T) {
	// More required offsets than available flips → probability 0.
	if got := ProbTargetPageApprox(2, 5, PageBits, 100000); got != 0 {
		t.Fatalf("p = %v, want 0", got)
	}
}

func TestProbSeries(t *testing.T) {
	series := ProbSeries(34, 1, PageBits, []int{1, 10, 100})
	if len(series) != 3 || !(series[0] < series[1] && series[1] < series[2]) {
		t.Fatalf("series = %v", series)
	}
}

func setupProfiled(t *testing.T, prof dram.DeviceProfile, bufPages, sides int) (*memsys.System, *memsys.Process, *Profile) {
	t.Helper()
	mod, err := dram.NewModuleForSize(bufPages*memsys.PageSize*2+(8<<20), prof, 11)
	if err != nil {
		t.Fatal(err)
	}
	sys := memsys.NewSystem(mod)
	attacker := sys.NewProcess()
	base, err := attacker.Mmap(bufPages)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileBuffer(sys, attacker, base, bufPages, Config{
		Sides: sides, Intensity: 1, MeasureSeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, attacker, p
}

func TestProfileBufferDDR3FindsFlips(t *testing.T) {
	_, _, p := setupProfiled(t, dram.PaperDDR3(), 1024, 2)
	if p.TotalFlips() == 0 {
		t.Fatal("no flips found on the paper's DDR3 profile")
	}
	avg := p.AvgFlipsPerPage()
	// Double-sided at full intensity finds all weak cells: the average
	// should be near the device's 11.66 flips/page.
	if math.Abs(avg-11.66)/11.66 > 0.35 {
		t.Fatalf("avg flips/page = %v, want ≈11.66", avg)
	}
	if p.FlippyPageCount() == 0 || p.VictimPageCount() == 0 {
		t.Fatal("no pages profiled")
	}
}

func TestProfileFlipsAreReproducible(t *testing.T) {
	sys, attacker, p := setupProfiled(t, dram.PaperDDR3(), 512, 2)
	// Pick a flippy row, reset its content, re-hammer with the recorded
	// aggressors, and verify every recorded flip fires again.
	for ri := range p.Rows {
		row := &p.Rows[ri]
		if row.FlipCount() == 0 {
			continue
		}
		for half := 0; half < 2; half++ {
			pg := row.Pages[half]
			vaddr := p.BufBase + pg.BufferPage*memsys.PageSize
			content := make([]byte, memsys.PageSize)
			for _, f := range pg.Flips {
				if f.Dir == dram.OneToZero {
					content[f.Offset] |= 1 << f.Bit
				}
			}
			if err := attacker.Write(vaddr, content); err != nil {
				t.Fatal(err)
			}
		}
		if err := HammerRows(sys, attacker, row.AggressorVaddrs, row.Intensity); err != nil {
			t.Fatal(err)
		}
		for half := 0; half < 2; half++ {
			pg := row.Pages[half]
			vaddr := p.BufBase + pg.BufferPage*memsys.PageSize
			buf, _ := attacker.Read(vaddr, memsys.PageSize)
			for _, f := range pg.Flips {
				bit := buf[f.Offset] & (1 << f.Bit)
				if f.Dir == dram.ZeroToOne && bit == 0 {
					t.Fatalf("row %d: 0→1 flip at %d.%d did not reproduce", ri, f.Offset, f.Bit)
				}
				if f.Dir == dram.OneToZero && bit != 0 {
					t.Fatalf("row %d: 1→0 flip at %d.%d did not reproduce", ri, f.Offset, f.Bit)
				}
			}
		}
		return // one row suffices
	}
	t.Fatal("no flippy row found")
}

func TestProfileDDR4NSided(t *testing.T) {
	_, _, p := setupProfiled(t, dram.PaperDDR4(), 1024, 7)
	if p.TotalFlips() == 0 {
		t.Fatal("7-sided profiling on DDR4 must find flips")
	}
	for ri := range p.Rows {
		if p.Rows[ri].Sides != 7 {
			t.Fatal("row profiled with wrong pattern")
		}
	}
}

func TestProfileValidation(t *testing.T) {
	mod, _ := dram.NewModuleForSize(4<<20, dram.PaperDDR3(), 1)
	sys := memsys.NewSystem(mod)
	p := sys.NewProcess()
	base, _ := p.Mmap(64)
	if _, err := ProfileBuffer(sys, p, base, 64, Config{Sides: 1, Intensity: 1}); err == nil {
		t.Fatal("sides=1 must fail")
	}
	if _, err := ProfileBuffer(sys, p, base, 64, Config{Sides: 2, Intensity: 0}); err == nil {
		t.Fatal("zero intensity must fail")
	}
	if _, err := ProfileBuffer(sys, p, base, 63, Config{Sides: 2, Intensity: 1}); err == nil {
		t.Fatal("odd page count must fail")
	}
}

func TestPlanPlacementSingleFlipsMatch(t *testing.T) {
	_, _, p := setupProfiled(t, dram.PaperDDR3(), 1024, 2)
	// Take three real profiled flips as requirements on distinct pages,
	// from rows spaced well apart (adjacent rows cannot both be targets
	// because each is the other's aggressor).
	var reqs []PageRequirement
	filePage := 0
	lastRow := -10
	for ri := range p.Rows {
		if ri-lastRow < 8 {
			continue
		}
		fl := p.Rows[ri].Pages[0].Flips
		if len(fl) == 0 {
			continue
		}
		reqs = append(reqs, PageRequirement{FilePage: filePage, Flips: []CellFlip{fl[0]}})
		filePage += 7
		lastRow = ri
		if len(reqs) == 3 {
			break
		}
	}
	if len(reqs) != 3 {
		t.Fatalf("found only %d well-spaced flippy rows", len(reqs))
	}
	plan, err := PlanPlacement(p, reqs, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Matched) != 3 || len(plan.Unmatched) != 0 {
		t.Fatalf("matched %d / unmatched %d, want 3/0", len(plan.Matched), len(plan.Unmatched))
	}
	if len(plan.Assignment) != 40 {
		t.Fatalf("assignment covers %d pages", len(plan.Assignment))
	}
	// No buffer page may be assigned twice.
	seen := make(map[int]bool)
	for _, bp := range plan.Assignment {
		if seen[bp] {
			t.Fatal("buffer page assigned twice")
		}
		seen[bp] = true
	}
}

func TestPlanPlacementImpossibleRequirement(t *testing.T) {
	_, _, p := setupProfiled(t, dram.PaperDDR3(), 256, 2)
	// Requiring 5 specific flips in one page is astronomically unlikely
	// (Eq. 2) — the planner must report it unmatched.
	req := PageRequirement{FilePage: 0, Flips: []CellFlip{
		{Offset: 1, Bit: 0, Dir: dram.ZeroToOne},
		{Offset: 2, Bit: 1, Dir: dram.OneToZero},
		{Offset: 3, Bit: 2, Dir: dram.ZeroToOne},
		{Offset: 4, Bit: 3, Dir: dram.OneToZero},
		{Offset: 5, Bit: 4, Dir: dram.ZeroToOne},
	}}
	plan, err := PlanPlacement(p, []PageRequirement{req}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Unmatched) != 1 || len(plan.Matched) != 0 {
		t.Fatal("impossible requirement should be unmatched")
	}
}

func TestPlanPlacementBufferTooSmall(t *testing.T) {
	_, _, p := setupProfiled(t, dram.PaperDDR3(), 64, 2)
	if _, err := PlanPlacement(p, nil, 10_000); err == nil {
		t.Fatal("oversized file must fail")
	}
	if _, err := PlanPlacement(p, nil, 0); err == nil {
		t.Fatal("empty file must fail")
	}
}

func TestFlipsPerPageHistogram(t *testing.T) {
	_, _, p := setupProfiled(t, dram.PaperDDR3(), 256, 2)
	h := p.FlipsPerPageHistogram()
	total := 0
	for _, c := range h {
		total += c
	}
	if total != p.VictimPageCount() {
		t.Fatalf("histogram covers %d pages, want %d", total, p.VictimPageCount())
	}
}
