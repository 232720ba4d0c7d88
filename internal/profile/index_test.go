package profile

import (
	"slices"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
)

// checkIndexMatchesFresh asserts p's memoized flip index equals, cell
// by cell, the index a full build over the same rows produces.
func checkIndexMatchesFresh(t *testing.T, p *Profile) {
	t.Helper()
	fresh := p.Clone()
	fresh.buildFlipIndex()
	if len(p.flipIndex) != cellCount || p.indexedRows != len(p.Rows) {
		t.Fatalf("index has %d cells over %d of %d rows, want %d cells over all",
			len(p.flipIndex), p.indexedRows, len(p.Rows), cellCount)
	}
	for id, want := range fresh.flipIndex {
		if !slices.Equal(p.flipIndex[id], want) {
			t.Fatalf("cell %d diverged: incremental %v, fresh %v", id, p.flipIndex[id], want)
		}
	}
}

// snapshotIndex copies every cell's candidate list.
func snapshotIndex(p *Profile) [][]int32 {
	out := make([][]int32, len(p.flipIndex))
	for id, l := range p.flipIndex {
		out[id] = slices.Clone(l)
	}
	return out
}

// grownCells counts cells that were non-empty in before and hold more
// candidates now: the lists whose capped slice had to reallocate.
func grownCells(before, after [][]int32) int {
	n := 0
	for id := range before {
		if len(before[id]) > 0 && len(after[id]) > len(before[id]) {
			n++
		}
	}
	return n
}

// TestExtendProfileIndexMatchesFreshBuild: rows that ExtendProfile
// appends to a primed profile are indexed by appending to the capped
// cell lists; the result must equal a full build, which fails if one
// cell's append wrote into its neighbour's part of the flat array.
func TestExtendProfileIndexMatchesFreshBuild(t *testing.T) {
	sys, attacker, p := setupProfiled(t, dram.PaperDDR3(), 512, 2)
	p.PrimeIndex()
	before := snapshotIndex(p)
	ext, err := attacker.Mmap(512)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExtendProfile(sys, attacker, p, ext, 512, Config{Sides: 2, Intensity: 1, MeasureSeed: 5}); err != nil {
		t.Fatal(err)
	}
	p.PrimeIndex()
	checkIndexMatchesFresh(t, p)
	if grownCells(before, p.flipIndex) == 0 {
		t.Fatal("the extension grew no non-empty cell; the append path went untested")
	}
}

// TestCloneReprofileUnionIndexMatchesFreshBuild follows a cached
// template under re-templating: the primed shared profile is cloned,
// the clone plans (a fresh build) and then unions re-sweep flips in
// place (sorted inserts). The clone's index must equal a full build of
// its rows, and the shared profile's index must not move.
func TestCloneReprofileUnionIndexMatchesFreshBuild(t *testing.T) {
	mod, err := dram.NewModuleForSize(32<<20, dram.PaperDDR3(), 11)
	if err != nil {
		t.Fatal(err)
	}
	sys := memsys.NewSystem(mod)
	sys.InjectFaults(dram.FaultModel{FlipFailProb: 0.5, Seed: 3})
	attacker := sys.NewProcess()
	base, err := attacker.Mmap(512)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Sides: 2, Intensity: 1, MeasureSeed: 5}
	shared, err := ProfileBuffer(sys, attacker, base, 512, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared.PrimeIndex()
	sharedBefore := snapshotIndex(shared)

	c := shared.Clone()
	c.buildFlipIndex()
	added := 0
	for pass := 0; pass < 3; pass++ {
		n, err := ReprofileUnion(sys, attacker, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		added += n
	}
	if added == 0 || grownCells(sharedBefore, c.flipIndex) == 0 {
		t.Fatalf("re-sweeps added %d flips and grew no non-empty cell; the insert path went untested", added)
	}
	checkIndexMatchesFresh(t, c)
	checkIndexMatchesFresh(t, shared)
	for id := range sharedBefore {
		if !slices.Equal(shared.flipIndex[id], sharedBefore[id]) {
			t.Fatalf("re-templating the clone changed the shared profile's cell %d", id)
		}
	}
}

// TestPlanSkipsOutOfRangeFlips: a flip outside the page's cells —
// offset outside [0, 4096), bit outside [0, 8), or a direction other
// than 0→1 and 1→0 — indexes nothing. A requirement holding one is
// unmatched rather than a panic, and a hand-built profile holding one
// is indexed without it.
func TestPlanSkipsOutOfRangeFlips(t *testing.T) {
	bad := []CellFlip{
		{Offset: memsys.PageSize, Bit: 0, Dir: dram.ZeroToOne},
		{Offset: -1, Bit: 0, Dir: dram.ZeroToOne},
		{Offset: 7, Bit: 8, Dir: dram.OneToZero},
		{Offset: 7, Bit: -1, Dir: dram.OneToZero},
		{Offset: 7, Bit: 2, Dir: 0},
		{Offset: 7, Bit: 2, Dir: dram.OneToZero + 1},
	}
	good := CellFlip{Offset: 100, Bit: 3, Dir: dram.ZeroToOne}
	p := handProfile()
	p.Rows[0].Pages[0].Flips = append(p.Rows[0].Pages[0].Flips, bad...)

	var reqs []PageRequirement
	for i, f := range bad {
		reqs = append(reqs, PageRequirement{FilePage: i, Flips: []CellFlip{f}})
	}
	reqs = append(reqs,
		PageRequirement{FilePage: len(bad), Flips: []CellFlip{good, bad[0]}},
		PageRequirement{FilePage: len(bad) + 1, Flips: []CellFlip{good}},
	)
	plan, err := PlanPlacement(p, reqs, len(bad)+2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Matched) != 1 || len(plan.Unmatched) != len(bad)+1 {
		t.Fatalf("matched %d / unmatched %d, want 1/%d", len(plan.Matched), len(plan.Unmatched), len(bad)+1)
	}
	if plan.Matched[0].FilePage != len(bad)+1 {
		t.Fatalf("matched file page %d, want the all-valid requirement on %d", plan.Matched[0].FilePage, len(bad)+1)
	}
	indexed := 0
	for _, l := range p.flipIndex {
		indexed += len(l)
	}
	if indexed != 2 {
		t.Fatalf("index holds %d candidates, want the 2 in-range flips", indexed)
	}
	// The union path's sorted insert skips them too.
	p.indexInsertFlip(bad[2], 1, 1)
	checkIndexMatchesFresh(t, p)
}
