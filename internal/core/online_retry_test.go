package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/profile"
	"rowhammer/internal/tensor"
)

// retrySystem builds a fresh system with an optional fault model.
func retrySystem(t testing.TB, bufPages int, fail float64) *memsys.System {
	t.Helper()
	mod, err := dram.NewModuleForSize(bufPages*memsys.PageSize+(16<<20), dram.PaperDDR3(), 77)
	if err != nil {
		t.Fatal(err)
	}
	sys := memsys.NewSystem(mod)
	if fail > 0 {
		sys.InjectFaults(dram.FaultModel{FlipFailProb: fail, Seed: 9})
	}
	return sys
}

func retryConfig(rounds int) OnlineConfig {
	return OnlineConfig{
		BufferPages:    2048,
		Sides:          2,
		Intensity:      1,
		MeasureSeed:    7,
		WeightFileName: "retry-weights.bin",
		Rounds:         rounds,
		Escalation:     1.15,
	}
}

// TestRetryEngineMatrix sweeps flip-failure rates against round budgets
// and checks the engine's core contracts: per-round NMatch is monotone
// non-decreasing, bigger budgets never do worse, and the fault-free
// runs converge in one round regardless of budget.
func TestRetryEngineMatrix(t *testing.T) {
	file, reqs := profile.SyntheticWorkload(256, 3)
	for _, fail := range []float64{0, 0.3, 0.6} {
		matchAt := map[int]int{}
		for _, rounds := range []int{1, 3, 5} {
			t.Run(fmt.Sprintf("fail%.1f/rounds%d", fail, rounds), func(t *testing.T) {
				sys := retrySystem(t, 2048, fail)
				res, err := ExecuteOnline(sys, file, reqs, retryConfig(rounds))
				if err != nil {
					t.Fatal(err)
				}
				rep := res.Report
				if rep == nil || len(rep.Rounds) == 0 {
					t.Fatal("no attack report")
				}
				if got := rep.RoundsExecuted(); got > rounds {
					t.Fatalf("executed %d rounds with budget %d", got, rounds)
				}
				prev := -1
				for _, r := range rep.Rounds {
					if r.NMatch < prev {
						t.Fatalf("NMatch regressed: %+v", rep.Rounds)
					}
					prev = r.NMatch
					if r.NMatch+r.Missing != rep.Rounds[0].NMatch+rep.Rounds[0].Missing {
						t.Fatalf("NMatch+Missing not conserved across rounds: %+v", rep.Rounds)
					}
				}
				if fail == 0 {
					if rep.RoundsExecuted() != 1 {
						t.Fatalf("fault-free run took %d rounds", rep.RoundsExecuted())
					}
					// Every requirement the planner placed must fire (the
					// 2048-page buffer is below the Eq. 2 matching floor, so
					// some requirements legitimately stay unmatched).
					if want := res.NRequired - res.Unmatched; res.NMatch != want {
						t.Fatalf("fault-free run matched %d, want %d (of %d)", res.NMatch, want, res.NRequired)
					}
				}
				matchAt[rounds] = res.NMatch
			})
		}
		if matchAt[3] < matchAt[1] || matchAt[5] < matchAt[3] {
			t.Fatalf("fail %.1f: NMatch not monotone in round budget: %v", fail, matchAt)
		}
		if fail == 0.6 && matchAt[5] <= matchAt[1] {
			t.Fatalf("fail 0.6: 5-round budget recovered nothing over single shot: %v", matchAt)
		}
	}
}

// TestRetryReportWorkerDeterminism: under fault injection the whole
// report — per-round stats, re-templating stats, metrics and the
// corrupted file — must be byte-identical at 1, 2 and 4 templating
// workers. Only the wall-clock Timing block may differ.
func TestRetryReportWorkerDeterminism(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prevProcs)

	file, reqs := profile.SyntheticWorkload(256, 3)
	cfg := retryConfig(4)

	run := func(workers int) *OnlineResult {
		prev := tensor.SetMaxWorkers(workers)
		defer tensor.SetMaxWorkers(prev)
		sys := retrySystem(t, cfg.BufferPages, 0.4)
		res, err := ExecuteOnline(sys, file, reqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res.Report.Timing = StageTiming{}
		return res
	}

	ref := run(1)
	if ref.Report.RoundsExecuted() < 2 {
		t.Fatalf("fault rate 0.4 finished in %d round(s); retry path untested", ref.Report.RoundsExecuted())
	}
	for _, w := range []int{2, 4} {
		got := run(w)
		if !reflect.DeepEqual(got.Report, ref.Report) {
			t.Fatalf("report at %d workers differs:\n%+v\nwant\n%+v", w, got.Report, ref.Report)
		}
		if got.NMatch != ref.NMatch || got.RMatch != ref.RMatch ||
			got.NFlipOnline != ref.NFlipOnline || got.AccidentalFlips != ref.AccidentalFlips {
			t.Fatalf("metrics at %d workers diverged", w)
		}
		if !bytes.Equal(got.CorruptedFile, ref.CorruptedFile) {
			t.Fatalf("corrupted file at %d workers differs", w)
		}
		if !reflect.DeepEqual(got.Plan, ref.Plan) {
			t.Fatalf("plan at %d workers differs", w)
		}
	}
}

// TestZeroFaultRobustEqualsSingleShot: with no faults injected, the
// full robust configuration (round budget, escalation, re-templating)
// must reproduce the single-shot engine byte for byte — round 1 fires
// everything, so the retry machinery never touches memory.
func TestZeroFaultRobustEqualsSingleShot(t *testing.T) {
	file, reqs := profile.SyntheticWorkload(256, 3)

	single := retryConfig(0)
	single.Escalation = 0
	sres, err := ExecuteOnline(retrySystem(t, 2048, 0), file, reqs, single)
	if err != nil {
		t.Fatal(err)
	}

	// Re-templating stays off: the 2048-page buffer leaves requirements
	// unmatched even fault-free, so any growth pass would legitimately
	// change the plan. The round/escalation machinery alone must be a
	// byte-exact no-op on a fault-free module.
	robust := retryConfig(5)
	rres, err := ExecuteOnline(retrySystem(t, 2048, 0), file, reqs, robust)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(sres.CorruptedFile, rres.CorruptedFile) {
		t.Fatal("robust config corrupted file differs from single shot on a fault-free module")
	}
	if sres.NMatch != rres.NMatch || sres.NFlipOnline != rres.NFlipOnline ||
		sres.AccidentalFlips != rres.AccidentalFlips || sres.RMatch != rres.RMatch ||
		sres.Unmatched != rres.Unmatched {
		t.Fatal("robust config metrics differ from single shot on a fault-free module")
	}
	if !reflect.DeepEqual(sres.Plan, rres.Plan) {
		t.Fatal("robust config plan differs from single shot on a fault-free module")
	}
	if rres.Report.RoundsExecuted() != 1 || len(rres.Report.Retemplates) != 0 {
		t.Fatalf("fault-free robust run did extra work: %d rounds, %d re-templates",
			rres.Report.RoundsExecuted(), len(rres.Report.Retemplates))
	}
}

// TestRetryRecoversFromFlipFailures is the headline acceptance check on
// the synthetic workload at the paper's profiling scale: at 50%
// per-pass flip failure a single shot loses a large fraction of the
// required flips, while the robust engine — 5 verify/re-hammer rounds
// plus re-templating passes that recover the flips faulty profiling
// sweeps missed — brings r_match back above 95%.
func TestRetryRecoversFromFlipFailures(t *testing.T) {
	file, reqs := profile.SyntheticWorkload(256, 3)
	single := DefaultOnlineConfig(256)
	single.MeasureSeed = 7
	single.WeightFileName = "retry-weights.bin"
	robust := single
	robust.Rounds = 5
	robust.Escalation = 2
	robust.RetemplatePasses = 2

	sres, err := ExecuteOnline(retrySystem(t, single.BufferPages, 0.5), file, reqs, single)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := ExecuteOnline(retrySystem(t, robust.BufferPages, 0.5), file, reqs, robust)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("single shot r_match %.2f%% (%d/%d), 5-round r_match %.2f%% (%d/%d over %d rounds)",
		sres.RMatch, sres.NMatch, sres.NRequired,
		rres.RMatch, rres.NMatch, rres.NRequired, rres.Report.RoundsExecuted())
	if sres.RMatch >= 95 {
		t.Fatalf("single shot r_match %.2f%% — fault injection had no bite", sres.RMatch)
	}
	if rres.RMatch < 95 {
		t.Fatalf("5-round retry r_match %.2f%%, want ≥ 95%%", rres.RMatch)
	}
	if rres.Report.Recovered() == 0 {
		t.Fatal("retry rounds recovered no flips")
	}
}

// TestAdaptiveRetemplating: shrink the buffer until the first plan
// leaves requirements unmatched and check the engine grows the buffer,
// re-plans, and records the passes.
func TestAdaptiveRetemplating(t *testing.T) {
	file, reqs := profile.SyntheticWorkload(64, 3)
	cfg := OnlineConfig{
		// Too small for all 8 single-flip requirements to find hosts.
		BufferPages:      256,
		Sides:            2,
		Intensity:        1,
		MeasureSeed:      7,
		WeightFileName:   "grow-weights.bin",
		RetemplatePasses: 3,
	}
	base, err := ExecuteOnline(retrySystem(t, 4096, 0), file, reqs, OnlineConfig{
		BufferPages: cfg.BufferPages, Sides: 2, Intensity: 1, MeasureSeed: 7,
		WeightFileName: cfg.WeightFileName,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Unmatched == 0 {
		t.Skip("baseline buffer matched everything; cannot exercise re-templating")
	}
	res, err := ExecuteOnline(retrySystem(t, 4096, 0), file, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Retemplates) == 0 {
		t.Fatal("unmatched requirements but no re-templating pass recorded")
	}
	if res.Unmatched >= base.Unmatched {
		t.Fatalf("re-templating did not reduce unmatched: %d → %d", base.Unmatched, res.Unmatched)
	}
	last := res.Report.Retemplates[len(res.Report.Retemplates)-1]
	if last.BufferPages <= cfg.BufferPages {
		t.Fatalf("buffer never grew: %+v", res.Report.Retemplates)
	}
	if res.Report.Unmatched != res.Unmatched {
		t.Fatalf("report unmatched %d != result unmatched %d", res.Report.Unmatched, res.Unmatched)
	}
}

// TestTallyDeltaDenominator is the regression for the δ accounting bug:
// δ must average accidental flips over every disturbed target page —
// including pages that took only required flips — not just over pages
// that happened to take accidental ones.
func TestTallyDeltaDenominator(t *testing.T) {
	const pages = 4
	orig := make([]byte, pages*memsys.PageSize)
	corrupted := append([]byte(nil), orig...)

	// Page 0: one required flip, nothing else.
	corrupted[0*memsys.PageSize+10] ^= 1 << 2
	// Page 1: one required flip plus two accidental flips.
	corrupted[1*memsys.PageSize+20] ^= 1 << 4
	corrupted[1*memsys.PageSize+21] ^= 1 << 0
	corrupted[1*memsys.PageSize+22] ^= 1 << 7
	// Page 2: three accidental flips, no requirement.
	corrupted[2*memsys.PageSize+30] ^= (1 << 1) | (1 << 5)
	corrupted[2*memsys.PageSize+31] ^= 1 << 6
	// Page 3: untouched.

	reqs := []profile.PageRequirement{
		{FilePage: 0, Flips: []profile.CellFlip{{Offset: 10, Bit: 2, Dir: dram.ZeroToOne}}},
		{FilePage: 1, Flips: []profile.CellFlip{{Offset: 20, Bit: 4, Dir: dram.ZeroToOne}}},
	}
	var res OnlineResult
	res.tally(orig, corrupted, reqs)

	if res.NRequired != 2 || res.NMatch != 2 {
		t.Fatalf("NMatch %d/%d, want 2/2", res.NMatch, res.NRequired)
	}
	if res.AccidentalFlips != 5 {
		t.Fatalf("AccidentalFlips = %d, want 5", res.AccidentalFlips)
	}
	if res.NFlipOnline != 7 {
		t.Fatalf("NFlipOnline = %d, want 7", res.NFlipOnline)
	}
	// Three pages are disturbed (0, 1, 2) → δ = 5/3. The buggy tally
	// divided by the two pages with accidental flips (δ = 5/2),
	// understating r_match.
	s := float64(memsys.PageSize * 8)
	want := 100 * (1 - (5.0/3.0)/s)
	if diff := res.RMatch - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("RMatch = %.10f, want %.10f (δ = 5/3)", res.RMatch, want)
	}
	buggy := 100 * (1 - (5.0/2.0)/s)
	if diff := res.RMatch - buggy; diff < 1e-12 && diff > -1e-12 {
		t.Fatal("RMatch matches the buggy δ = 5/2 accounting")
	}
}

// TestAfterRoundHook: the victim-under-fire seam must fire once per
// executed round, in order, with a private copy of the mapped file at
// that instant — the last copy byte-identical to the final
// CorruptedFile, and intermediate copies monotone in fired flips.
func TestAfterRoundHook(t *testing.T) {
	file, reqs := profile.SyntheticWorkload(256, 3)
	cfg := retryConfig(4)
	var rounds []int
	var snaps [][]byte
	cfg.AfterRound = func(round int, mapped []byte) {
		rounds = append(rounds, round)
		snaps = append(snaps, mapped)
	}
	res, err := ExecuteOnline(retrySystem(t, 2048, 0.4), file, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != res.Report.RoundsExecuted() {
		t.Fatalf("hook fired %d times over %d executed rounds", len(rounds), res.Report.RoundsExecuted())
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Fatalf("hook round order %v", rounds)
		}
	}
	last := snaps[len(snaps)-1]
	if len(last) != len(res.CorruptedFile) {
		t.Fatalf("final snapshot %d bytes, corrupted file %d", len(last), len(res.CorruptedFile))
	}
	for i := range last {
		if last[i] != res.CorruptedFile[i] {
			t.Fatalf("final snapshot diverges from CorruptedFile at byte %d", i)
		}
	}
	// Corruption is monotone across rounds: every round's snapshot
	// differs from the clean file in at least as many bits as the
	// previous one (re-hammering only fires additional cells).
	prev := 0
	for i, s := range snaps {
		d := 0
		for j := range s {
			for x := s[j] ^ file[j]; x != 0; x &= x - 1 {
				d++
			}
		}
		if d < prev {
			t.Fatalf("round %d snapshot has %d flips, previous had %d", i+1, d, prev)
		}
		prev = d
	}
	if prev != res.NFlipOnline {
		t.Fatalf("final snapshot flips %d != NFlipOnline %d", prev, res.NFlipOnline)
	}
}

// TestUnmatchedPropagated: requirements the planner cannot place must
// surface in OnlineResult.Unmatched instead of being silently dropped.
func TestUnmatchedPropagated(t *testing.T) {
	file, reqs := profile.SyntheticWorkload(64, 3)
	// An impossible requirement: three exact flips on one page has
	// probability ≈3e-5 per Eq. 2 even at the paper's full scale.
	reqs = append(reqs, profile.PageRequirement{
		FilePage: 1,
		Flips: []profile.CellFlip{
			{Offset: 1, Bit: 1, Dir: dram.ZeroToOne},
			{Offset: 2, Bit: 2, Dir: dram.OneToZero},
			{Offset: 3, Bit: 3, Dir: dram.ZeroToOne},
		},
	})
	res, err := ExecuteOnline(retrySystem(t, 2048, 0), file, reqs, OnlineConfig{
		BufferPages: 2048, Sides: 2, Intensity: 1, MeasureSeed: 7,
		WeightFileName: "unmatched-weights.bin",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unmatched == 0 {
		t.Fatal("impossible requirement reported as matched")
	}
	if res.Unmatched != len(res.Plan.Unmatched) {
		t.Fatalf("Unmatched %d != plan's %d", res.Unmatched, len(res.Plan.Unmatched))
	}
	if res.Report.Unmatched != res.Unmatched {
		t.Fatalf("report Unmatched %d != result's %d", res.Report.Unmatched, res.Unmatched)
	}
}
