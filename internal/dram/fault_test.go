package dram

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"
)

// hotProfile flips enough cells per page that fault statistics have
// sample size.
func hotProfile() DeviceProfile {
	return DeviceProfile{Name: "hot", Type: DDR3, FlipsPerPage: 200}
}

// TestZeroFaultModelIsIdentity: installing the zero-valued fault model
// must leave the module byte-identical to one that never heard of
// faults — the gate for the robust engine's "zero-fault path is today's
// path" guarantee.
func TestZeroFaultModelIsIdentity(t *testing.T) {
	plain := newTestModule(t, hotProfile())
	faulted := newTestModule(t, hotProfile())
	faulted.SetFaultModel(FaultModel{})

	for _, m := range []*Module{plain, faulted} {
		m.FillRow(3, 40, 0x00)
	}
	a, _ := plain.HammerDoubleSided(3, 40, 1)
	b, _ := faulted.HammerDoubleSided(3, 40, 1)
	if len(a) == 0 {
		t.Fatal("hot device with full hammer must flip")
	}
	if len(a) != len(b) {
		t.Fatalf("zero fault model changed flip count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("zero fault model changed event %d: %v vs %v", i, a[i], b[i])
		}
	}
	base := plain.geom.RowBaseAddr(3, 40)
	if !bytes.Equal(plain.ReadRange(base, RowBytes), faulted.ReadRange(base, RowBytes)) {
		t.Fatal("zero fault model changed row contents")
	}
}

// TestFaultStreamsAreDeterministic: the same (seed, bank, row, pass,
// bit) tuple must always draw the same uniform — the property that
// makes the whole retry engine schedule-independent.
func TestFaultStreamsAreDeterministic(t *testing.T) {
	for _, tc := range []struct {
		seed      int64
		bank, row int
		pass      uint64
		bit       int
	}{
		{1, 0, 0, 0, 0},
		{1, 3, 40, 2, 17},
		{9, 15, 127, 100, -1},
	} {
		a := faultUniform(tc.seed, tc.bank, tc.row, tc.pass, tc.bit)
		b := faultUniform(tc.seed, tc.bank, tc.row, tc.pass, tc.bit)
		if a != b {
			t.Fatalf("faultUniform not deterministic for %+v", tc)
		}
		if a < 0 || a >= 1 {
			t.Fatalf("faultUniform out of [0,1): %v", a)
		}
	}
	// Neighboring tuples must decorrelate: a raw (unfinalized) splitmix
	// key would make adjacent rows draw near-identical streams.
	var prev float64
	diffs := 0
	for row := 0; row < 64; row++ {
		u := faultUniform(1, 0, row, 0, 0)
		if math.Abs(u-prev) > 0.01 {
			diffs++
		}
		prev = u
	}
	if diffs < 48 {
		t.Fatalf("adjacent-row draws look correlated: only %d/64 moved", diffs)
	}
}

// TestFaultStreamUniformity: the per-bit draws should be roughly
// uniform, so FlipFailProb p really suppresses ≈p of the firings.
func TestFaultStreamUniformity(t *testing.T) {
	n, below := 20000, 0
	for i := 0; i < n; i++ {
		if faultUniform(7, i%16, i/16, uint64(i%5), i%8192) < 0.3 {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("P(u<0.3) = %.3f, want ≈0.30", frac)
	}
}

// TestFlipFailProbSuppressesFlips: with failure probability p a single
// hammer pass should fire ≈(1−p) of the cells a fault-free pass fires,
// and repeated passes should recover the stragglers.
func TestFlipFailProbSuppressesFlips(t *testing.T) {
	clean := newTestModule(t, hotProfile())
	clean.FillRow(5, 60, 0x00)
	full, _ := clean.HammerDoubleSided(5, 60, 1)
	if len(full) < 50 {
		t.Fatalf("need a big sample, got %d flips", len(full))
	}

	lossy := newTestModule(t, hotProfile())
	lossy.SetFaultModel(FaultModel{FlipFailProb: 0.5, Seed: 3})
	lossy.FillRow(5, 60, 0x00)
	first, _ := lossy.HammerDoubleSided(5, 60, 1)
	frac := float64(len(first)) / float64(len(full))
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("fail prob 0.5: first pass fired %.2f of cells, want ≈0.5", frac)
	}

	// Each extra pass halves the stragglers; ten passes leave ~2^-10.
	fired := len(first)
	for pass := 0; pass < 10; pass++ {
		ev, _ := lossy.HammerDoubleSided(5, 60, 1)
		fired += len(ev)
	}
	if fired < len(full)-2 {
		t.Fatalf("retries recovered only %d/%d flips", fired, len(full))
	}
}

// TestFlipFailRetryIsPassKeyed: two modules with the same fault seed
// must make identical draws pass by pass — the counter advances per
// hammer, not per wall clock.
func TestFlipFailRetryIsPassKeyed(t *testing.T) {
	mk := func() *Module {
		m := newTestModule(t, hotProfile())
		m.SetFaultModel(FaultModel{FlipFailProb: 0.4, Seed: 11})
		m.FillRow(2, 30, 0x00)
		return m
	}
	a, b := mk(), mk()
	for pass := 0; pass < 4; pass++ {
		ea, _ := a.HammerDoubleSided(2, 30, 1)
		eb, _ := b.HammerDoubleSided(2, 30, 1)
		if len(ea) != len(eb) {
			t.Fatalf("pass %d diverged: %d vs %d flips", pass, len(ea), len(eb))
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("pass %d event %d diverged", pass, i)
			}
		}
	}
}

// TestTRRJitterPerturbsThresholdCells: jitter must be able to push
// marginal cells across the firing threshold in both directions while a
// comfortable margin stays unaffected on average.
func TestTRRJitterPerturbsThresholdCells(t *testing.T) {
	// At intensity 1 the double-sided disturbance is 1.0 and every
	// threshold ≤ 1 cell fires; with 30% downward jitter some passes
	// drop below the high thresholds.
	clean := newTestModule(t, hotProfile())
	clean.FillRow(7, 80, 0x00)
	full, _ := clean.HammerDoubleSided(7, 80, 1)

	jittery := newTestModule(t, hotProfile())
	jittery.SetFaultModel(FaultModel{TRRJitter: 0.3, Seed: 5})
	jittery.FillRow(7, 80, 0x00)
	seen := map[FlipEvent]bool{}
	losses := 0
	first, _ := jittery.HammerDoubleSided(7, 80, 1)
	for _, e := range first {
		seen[e] = true
	}
	if len(first) < len(full) {
		losses++
	}
	// More passes with fresh jitter draws recover the high-threshold
	// cells a low-eff pass skipped.
	for pass := 0; pass < 20; pass++ {
		ev, _ := jittery.HammerDoubleSided(7, 80, 1)
		for _, e := range ev {
			seen[e] = true
		}
	}
	if len(seen) < len(full) {
		t.Fatalf("jittered passes recovered %d/%d flips", len(seen), len(full))
	}
}

// TestFaultModelInstalledRoundTrips checks the accessor used by tests
// and diagnostics.
func TestFaultModelInstalledRoundTrips(t *testing.T) {
	m := newTestModule(t, hotProfile())
	want := FaultModel{FlipFailProb: 0.25, TRRJitter: 0.1, Seed: 6}
	m.SetFaultModel(want)
	if got := m.FaultModelInstalled(); got != want {
		t.Fatalf("FaultModelInstalled = %+v, want %+v", got, want)
	}
}

// TestConcurrentFaultyHammerMatchesSerial: goroutines hammering
// disjoint rows (one bank each) under a fault model must leave the
// same memory, the same flip events and the same per-row pass counters
// as one goroutine running the banks in turn. The pass counters and
// the weak table are shared by every row, so this is the race gate for
// both.
func TestConcurrentFaultyHammerMatchesSerial(t *testing.T) {
	const banks, passes = 8, 3
	fm := FaultModel{FlipFailProb: 0.3, TRRJitter: 0.05, Seed: 9}
	run := func(concurrent bool) (*Module, [][]FlipEvent) {
		m := newTestModule(t, hotProfile())
		m.SetFaultModel(fm)
		events := make([][]FlipEvent, banks)
		work := func(bank int) {
			for row := 1; row < m.geom.RowsPerBank-1; row++ {
				m.FillRow(bank, row, byte(row%2)*0xFF)
			}
			for pass := 0; pass < passes; pass++ {
				for victim := 2; victim < m.geom.RowsPerBank-2; victim += 3 {
					events[bank] = append(events[bank], m.Hammer(bank, []int{victim - 1, victim + 1}, 1)...)
				}
			}
		}
		if !concurrent {
			for bank := 0; bank < banks; bank++ {
				work(bank)
			}
			return m, events
		}
		var wg sync.WaitGroup
		for bank := 0; bank < banks; bank++ {
			wg.Add(1)
			go func(bank int) {
				defer wg.Done()
				work(bank)
			}(bank)
		}
		wg.Wait()
		return m, events
	}
	serial, se := run(false)
	conc, ce := run(true)
	flips := 0
	for bank := range se {
		flips += len(se[bank])
		if !slices.Equal(se[bank], ce[bank]) {
			t.Fatalf("bank %d: flip events differ (%d serial, %d concurrent)", bank, len(se[bank]), len(ce[bank]))
		}
	}
	if flips == 0 {
		t.Fatal("workload produced no flips; test is vacuous")
	}
	for i := range serial.passes {
		if s, c := serial.passes[i].Load(), conc.passes[i].Load(); s != c {
			t.Fatalf("row index %d: pass counter %d serial, %d concurrent", i, s, c)
		}
	}
	if serial.passes[2].Load() != passes {
		t.Fatalf("bank 0 row 2 took %d passes, want %d", serial.passes[2].Load(), passes)
	}
	compareModules(t, serial, conc, "after concurrent faulty hammering")
}
