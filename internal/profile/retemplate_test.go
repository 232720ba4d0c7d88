package profile

import (
	"reflect"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
)

// handProfile builds a minimal two-row profile by hand, with row 1's
// aggressors placed below the buffer base — legal for externally merged
// profiles and exactly the shape that used to panic the planner's
// aggressor-page indexing.
func handProfile() *Profile {
	flip := CellFlip{Offset: 100, Bit: 3, Dir: dram.ZeroToOne}
	p := &Profile{
		BufBase:  1 << 20,
		BufPages: 8,
		Rows: []VictimRow{
			{
				Pages: [2]PageFlips{
					{BufferPage: 2, Flips: []CellFlip{flip}},
					{BufferPage: 3},
				},
				// One aggressor inside the buffer, one below BufBase.
				AggressorVaddrs: []int{1<<20 + 0*memsys.PageSize, 1<<20 - 4*memsys.PageSize},
				Sides:           2,
				Intensity:       1,
			},
			{
				Pages: [2]PageFlips{
					{BufferPage: 4, Flips: []CellFlip{flip}},
					{BufferPage: 5},
				},
				// Aggressors entirely outside (above) the buffer.
				AggressorVaddrs: []int{1<<20 + 100*memsys.PageSize},
				Sides:           2,
				Intensity:       1,
			},
		},
	}
	for page, rh := range map[int][2]int{2: {0, 0}, 3: {0, 1}, 4: {1, 0}, 5: {1, 1}} {
		p.setVictimPage(page, rh[0], rh[1])
	}
	return p
}

// TestPlanToleratesForeignAggressorVaddrs: aggressor vaddrs outside
// [BufBase, BufBase+BufPages) own no buffer page; planning over such a
// profile must skip them instead of indexing out of range (this
// panicked before the guards in aggressorBufferPages/rowAggConflict).
func TestPlanToleratesForeignAggressorVaddrs(t *testing.T) {
	p := handProfile()
	reqs := []PageRequirement{
		{FilePage: 0, Flips: []CellFlip{{Offset: 100, Bit: 3, Dir: dram.ZeroToOne}}},
		{FilePage: 1, Flips: []CellFlip{{Offset: 100, Bit: 3, Dir: dram.ZeroToOne}}},
	}
	plan, err := PlanPlacement(p, reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Matched) != 2 || len(plan.Unmatched) != 0 {
		t.Fatalf("matched %d / unmatched %d, want 2/0", len(plan.Matched), len(plan.Unmatched))
	}
	if len(plan.MatchedRows) != len(plan.Matched) {
		t.Fatalf("MatchedRows length %d != Matched length %d", len(plan.MatchedRows), len(plan.Matched))
	}
	for _, ri := range plan.MatchedRows {
		if ri < 0 || ri >= len(p.Rows) {
			t.Fatalf("MatchedRows points outside the profile: %d", ri)
		}
	}
	// The in-buffer aggressor page of row 0 must still be reserved
	// (never assigned to a file page).
	for fp, bp := range plan.Assignment {
		if bp == 0 {
			t.Fatalf("file page %d landed on reserved aggressor page 0", fp)
		}
	}
}

// TestMatchedRowsHostRequirements: each MatchedRows entry's row really
// contains its requirement's flips — the invariant the verify loop's
// re-hammer targeting relies on.
func TestMatchedRowsHostRequirements(t *testing.T) {
	_, _, p := setupProfiled(t, dram.PaperDDR3(), 512, 2)
	var reqs []PageRequirement
	fp := 0
	for ri := range p.Rows {
		for h := 0; h < 2 && len(reqs) < 5; h++ {
			fl := p.Rows[ri].Pages[h].Flips
			if len(fl) == 0 {
				continue
			}
			reqs = append(reqs, PageRequirement{FilePage: fp, Flips: []CellFlip{fl[0]}})
			fp++
		}
	}
	if len(reqs) == 0 {
		t.Skip("no flips profiled")
	}
	plan, err := PlanPlacement(p, reqs, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range plan.Matched {
		row := &p.Rows[plan.MatchedRows[i]]
		hosted := containsAll(row.Pages[0].Flips, req.Flips) || containsAll(row.Pages[1].Flips, req.Flips)
		if !hosted {
			t.Fatalf("matched row %d does not host requirement %d", plan.MatchedRows[i], i)
		}
	}
}

// TestExtendProfileGrowsContiguously: extending a profiled buffer with
// a second contiguous mapping must rebase the extension's pages onto
// the original base and leave planning over the union working.
func TestExtendProfileGrowsContiguously(t *testing.T) {
	mod, err := dram.NewModuleForSize(64<<20, dram.PaperDDR3(), 11)
	if err != nil {
		t.Fatal(err)
	}
	sys := memsys.NewSystem(mod)
	attacker := sys.NewProcess()
	const half = 512
	base, err := attacker.Mmap(half)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Sides: 2, Intensity: 1, MeasureSeed: 5}
	p, err := ProfileBuffer(sys, attacker, base, half, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rowsBefore := len(p.Rows)
	flipsBefore := p.TotalFlips()

	extBase, err := attacker.Mmap(half)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExtendProfile(sys, attacker, p, extBase, half, cfg); err != nil {
		t.Fatal(err)
	}
	if p.BufPages != 2*half {
		t.Fatalf("BufPages = %d, want %d", p.BufPages, 2*half)
	}
	if len(p.Rows) <= rowsBefore || p.TotalFlips() <= flipsBefore {
		t.Fatalf("extension added no rows/flips (%d rows, %d flips)", len(p.Rows), p.TotalFlips())
	}
	for ri := rowsBefore; ri < len(p.Rows); ri++ {
		for h := 0; h < 2; h++ {
			pg := p.Rows[ri].Pages[h].BufferPage
			if pg < half || pg >= 2*half {
				t.Fatalf("extension row %d half %d has page %d outside the extension", ri, h, pg)
			}
		}
	}

	// Planning across the union must work and may use extension rows.
	var req PageRequirement
	for ri := rowsBefore; ri < len(p.Rows); ri++ {
		if fl := p.Rows[ri].Pages[0].Flips; len(fl) > 0 {
			req = PageRequirement{FilePage: 0, Flips: []CellFlip{fl[0]}}
			break
		}
	}
	if req.Flips == nil {
		t.Skip("extension produced no flips to match")
	}
	plan, err := PlanPlacement(p, []PageRequirement{req}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Matched) != 1 {
		t.Fatalf("requirement from extension rows went unmatched")
	}
}

// TestExtendProfileRejectsGaps: an extension that is not virtually
// flush with the buffer end must be refused.
func TestExtendProfileRejectsGaps(t *testing.T) {
	sys, attacker, p := setupProfiled(t, dram.PaperDDR3(), 256, 2)
	cfg := Config{Sides: 2, Intensity: 1, MeasureSeed: 5}
	wrong := p.BufBase + (p.BufPages+2)*memsys.PageSize
	if err := ExtendProfile(sys, attacker, p, wrong, 256, cfg); err == nil {
		t.Fatal("non-contiguous extension accepted")
	}
	if err := ExtendProfile(sys, attacker, p, p.BufBase+p.BufPages*memsys.PageSize, 3, cfg); err == nil {
		t.Fatal("odd-page extension accepted")
	}
}

// TestReprofileUnionNoopWithoutFaults: on a deterministic module the
// re-sweep reproduces the recorded templates exactly — nothing added,
// rows untouched.
func TestReprofileUnionNoopWithoutFaults(t *testing.T) {
	sys, attacker, p := setupProfiled(t, dram.PaperDDR3(), 512, 2)
	before := make([]VictimRow, len(p.Rows))
	copy(before, p.Rows)
	added, err := ReprofileUnion(sys, attacker, p, Config{Sides: 2, Intensity: 1, MeasureSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Fatalf("fault-free re-sweep added %d flips, want 0", added)
	}
	if !reflect.DeepEqual(before, p.Rows) {
		t.Fatal("fault-free re-sweep mutated the profile")
	}
}

// TestReprofileUnionRecoversFaultMisses: with per-pass flip failures
// each sweep misses a random subset of weak cells; unioning repeated
// sweeps must grow the inventory toward the fault-free one, and the
// memoized index must stay consistent (plans over unioned flips work).
func TestReprofileUnionRecoversFaultMisses(t *testing.T) {
	mkSys := func(faulty bool) (*memsys.System, *memsys.Process) {
		mod, err := dram.NewModuleForSize(32<<20, dram.PaperDDR3(), 11)
		if err != nil {
			t.Fatal(err)
		}
		sys := memsys.NewSystem(mod)
		if faulty {
			sys.InjectFaults(dram.FaultModel{FlipFailProb: 0.5, Seed: 3})
		}
		return sys, sys.NewProcess()
	}
	cfg := Config{Sides: 2, Intensity: 1, MeasureSeed: 5}
	const pages = 512

	cleanSys, cleanProc := mkSys(false)
	base, err := cleanProc.Mmap(pages)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ProfileBuffer(cleanSys, cleanProc, base, pages, cfg)
	if err != nil {
		t.Fatal(err)
	}

	lossySys, lossyProc := mkSys(true)
	base2, err := lossyProc.Mmap(pages)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileBuffer(lossySys, lossyProc, base2, pages, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := p.TotalFlips()
	if first >= full.TotalFlips() {
		t.Fatalf("lossy sweep found %d flips, full %d — fault injection had no effect",
			first, full.TotalFlips())
	}
	// buildFlipIndex before unioning so indexInsertFlip's sorted
	// insertion path is exercised.
	p.buildFlipIndex()
	grown := first
	for pass := 0; pass < 6; pass++ {
		added, err := ReprofileUnion(lossySys, lossyProc, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		grown += added
	}
	if p.TotalFlips() != grown {
		t.Fatalf("TotalFlips %d != tracked %d", p.TotalFlips(), grown)
	}
	if grown <= first {
		t.Fatal("re-sweeps recovered nothing")
	}
	if float64(grown) < 0.95*float64(full.TotalFlips()) {
		t.Fatalf("after 7 sweeps recovered %d of %d flips", grown, full.TotalFlips())
	}
	// The incrementally maintained index must agree with a fresh build.
	checkIndexMatchesFresh(t, p)
}
