package core

import (
	"sync"
	"testing"
	"time"

	"rowhammer/internal/data"
	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/metrics"
	"rowhammer/internal/models"
	"rowhammer/internal/nn"
	"rowhammer/internal/pretrain"
	"rowhammer/internal/quant"
)

var (
	victimOnce sync.Once
	victimRes  *pretrain.Result
	victimErr  error
)

func victimCfg() pretrain.Config {
	return pretrain.Config{
		Model:        models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 3},
		Data:         data.SynthCIFAR(0, 21),
		TrainSamples: 600,
		TestSamples:  300,
		Epochs:       3,
		BatchSize:    32,
		Seed:         3,
	}
}

// trainedVictim returns the shared trained victim; tests clone its model
// before attacking it. Tests that need it train a full (small) victim,
// so they are skipped under -short; see EXPERIMENTS.md for the full-fat
// invocation.
func trainedVictim(t *testing.T) *pretrain.Result {
	t.Helper()
	if testing.Short() {
		t.Skip("heavy: trains a victim model; run without -short")
	}
	victimOnce.Do(func() {
		victimRes, victimErr = pretrain.Train(victimCfg())
	})
	if victimErr != nil {
		t.Fatal(victimErr)
	}
	return victimRes
}

func TestGroupSortSelectConstraints(t *testing.T) {
	nw := 5*quant.PageSize + 100
	grads := make([]float32, nw)
	for i := range grads {
		grads[i] = float32(i % 977)
	}
	sel, err := GroupSortSelect(grads, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) > 3 {
		t.Fatalf("selected %d, want ≤3", len(sel))
	}
	pages := map[int]bool{}
	for _, i := range sel {
		pg := quant.PageOf(i)
		if pages[pg] {
			t.Fatal("two selections share a page")
		}
		pages[pg] = true
	}
}

func TestGroupSortSelectPicksMaxPerGroup(t *testing.T) {
	nw := 2 * quant.PageSize
	grads := make([]float32, nw)
	grads[123] = 5
	grads[quant.PageSize+77] = 9
	sel, err := GroupSortSelect(grads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0] != 123 || sel[1] != quant.PageSize+77 {
		t.Fatalf("sel = %v", sel)
	}
}

func TestGroupSortSelectValidation(t *testing.T) {
	grads := make([]float32, 100) // less than one page
	if _, err := GroupSortSelect(grads, 2); err == nil {
		t.Fatal("NFlip beyond page count must fail")
	}
	if _, err := GroupSortSelect(grads, 0); err == nil {
		t.Fatal("NFlip=0 must fail")
	}
	if sel, err := GroupSortSelect(grads, 1); err != nil || len(sel) != 1 {
		t.Fatalf("single group: %v %v", sel, err)
	}
}

func TestRequirementsFromCodes(t *testing.T) {
	orig := make([]int8, quant.PageSize+10)
	mod := append([]int8(nil), orig...)
	mod[5] = 4              // page 0, bit 2, 0→1
	mod[quant.PageSize] = 1 // page 1, bit 0, 0→1
	reqs := RequirementsFromCodes(orig, mod)
	if len(reqs) != 2 {
		t.Fatalf("got %d requirements, want 2", len(reqs))
	}
	for _, r := range reqs {
		if len(r.Flips) != 1 {
			t.Fatalf("page %d has %d flips, want 1", r.FilePage, len(r.Flips))
		}
		if r.Flips[0].Dir != dram.ZeroToOne {
			t.Fatal("direction wrong")
		}
	}
}

func attackConfig(nflip int) Config {
	cfg := DefaultConfig(nflip, 2)
	cfg.Iterations = 100
	cfg.BitReduceEvery = 50
	cfg.Eta = 2
	cfg.Epsilon = 0.02 // larger FGSM step compensates the short run
	return cfg
}

func TestOfflineCFTBR(t *testing.T) {
	res := trainedVictim(t)
	model := res.Model.Clone()
	q0 := quant.NewQuantizer(model) // establish page count
	pages := q0.NumPages()
	nflip := 5
	if nflip > pages {
		nflip = pages
	}
	attackSet := res.Test.Head(64)

	cleanTA := metrics.TestAccuracy(model, res.Test)
	out, err := RunOffline(model, attackSet, attackConfig(nflip))
	if err != nil {
		t.Fatal(err)
	}

	// Constraint: at most NFlip bits, one per page, one per weight.
	if out.NFlip > nflip {
		t.Fatalf("NFlip = %d, budget %d", out.NFlip, nflip)
	}
	if out.NFlip == 0 {
		t.Fatal("attack flipped nothing")
	}
	diffs := quant.DiffBitsOf(out.OrigCodes, out.BackdooredCodes)
	pagesSeen := map[int]bool{}
	weightsSeen := map[int]bool{}
	for _, d := range diffs {
		pg := quant.PageOf(d.Weight)
		if pagesSeen[pg] {
			t.Fatal("two flips share a page (violates C2)")
		}
		pagesSeen[pg] = true
		if weightsSeen[d.Weight] {
			t.Fatal("two flips share a weight (violates Bit Reduction)")
		}
		weightsSeen[d.Weight] = true
	}

	// Behavior: TA preserved, ASR raised.
	ta := metrics.TestAccuracy(model, res.Test)
	asr := metrics.AttackSuccessRate(model, res.Test, out.Trigger, 2)
	t.Logf("clean TA %.3f → backdoored TA %.3f, ASR %.3f, NFlip %d", cleanTA, ta, asr, out.NFlip)
	if ta < cleanTA-0.1 {
		t.Fatalf("TA collapsed: %.3f → %.3f", cleanTA, ta)
	}
	if asr < 0.5 {
		t.Fatalf("ASR %.3f too low for a working backdoor", asr)
	}
	if len(out.LossHistory) != 100 {
		t.Fatalf("loss history %d entries", len(out.LossHistory))
	}
}

func TestOfflineCFTWithoutBR(t *testing.T) {
	res := trainedVictim(t)
	model := res.Model.Clone()
	cfg := attackConfig(5)
	cfg.BitReduce = false
	out, err := RunOffline(model, res.Test.Head(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One weight per page still holds…
	diffs := quant.DiffBitsOf(out.OrigCodes, out.BackdooredCodes)
	weightPages := map[int]int{}
	for _, d := range diffs {
		weightPages[quant.PageOf(d.Weight)] = d.Weight
	}
	byPageWeights := map[int]map[int]bool{}
	for _, d := range diffs {
		pg := quant.PageOf(d.Weight)
		if byPageWeights[pg] == nil {
			byPageWeights[pg] = map[int]bool{}
		}
		byPageWeights[pg][d.Weight] = true
	}
	for pg, ws := range byPageWeights {
		if len(ws) > 1 {
			t.Fatalf("page %d modifies %d weights, want 1", pg, len(ws))
		}
	}
	// …but multi-bit weight changes are allowed (and expected).
	if out.NFlip <= len(byPageWeights) {
		t.Logf("note: CFT produced only single-bit changes this run (NFlip=%d over %d pages)",
			out.NFlip, len(byPageWeights))
	}
}

func TestOfflineValidation(t *testing.T) {
	res := trainedVictim(t)
	model := res.Model.Clone()
	bad := attackConfig(5)
	bad.Alpha = 2
	if _, err := RunOffline(model, res.Test.Head(8), bad); err == nil {
		t.Fatal("alpha out of range must fail")
	}
	bad = attackConfig(5)
	bad.TargetClass = 99
	if _, err := RunOffline(model, res.Test.Head(8), bad); err == nil {
		t.Fatal("bad target class must fail")
	}
	bad = attackConfig(5)
	bad.Iterations = 0
	if _, err := RunOffline(model, res.Test.Head(8), bad); err == nil {
		t.Fatal("zero iterations must fail")
	}
	bad = attackConfig(1 << 20)
	if _, err := RunOffline(model, res.Test.Head(8), bad); err == nil {
		t.Fatal("NFlip beyond page count must fail")
	}
}

func TestOnlineEndToEnd(t *testing.T) {
	res := trainedVictim(t)
	model := res.Model.Clone()
	out, err := RunOffline(model, res.Test.Head(64), attackConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	offlineASR := metrics.AttackSuccessRate(model, res.Test, out.Trigger, 2)

	weightFile := out.Quantizer.WeightFileBytes()
	// Original (clean) file: rebuild from original codes.
	cleanModel := res.Model.Clone()
	qClean := quant.NewQuantizer(cleanModel)
	cleanFile := qClean.WeightFileBytes()
	_ = weightFile

	reqs := RequirementsFromCodes(out.OrigCodes, out.BackdooredCodes)

	mod, err := dram.NewModuleForSize(160<<20, dram.PaperDDR3(), 77)
	if err != nil {
		t.Fatal(err)
	}
	sys := memsys.NewSystem(mod)
	ocfg := DefaultOnlineConfig(len(cleanFile) / memsys.PageSize)
	onres, err := ExecuteOnline(sys, cleanFile, reqs, ocfg)
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("online: required %d, matched %d, accidental %d, r_match %.2f%%",
		onres.NRequired, onres.NMatch, onres.AccidentalFlips, onres.RMatch)
	if onres.NMatch != onres.NRequired {
		t.Fatalf("only %d of %d required flips landed", onres.NMatch, onres.NRequired)
	}
	if onres.RMatch < 99 {
		t.Fatalf("r_match = %.2f%%, want ≈100%%", onres.RMatch)
	}
	if onres.Unmatched != 0 {
		t.Fatalf("%d requirements unmatched at the paper's buffer scale", onres.Unmatched)
	}
	if onres.Report == nil || onres.Report.RoundsExecuted() != 1 {
		t.Fatalf("deterministic single-shot run should report exactly one round, got %+v", onres.Report)
	}

	// Load the corrupted file into a fresh victim model and verify the
	// backdoor behaves online as it did offline.
	victimModel := res.Model.Clone()
	qv := quant.NewQuantizer(victimModel)
	qv.LoadWeightFileBytes(onres.CorruptedFile)
	onlineASR := metrics.AttackSuccessRate(victimModel, res.Test, out.Trigger, 2)
	onlineTA := metrics.TestAccuracy(victimModel, res.Test)
	t.Logf("offline ASR %.3f, online ASR %.3f, online TA %.3f", offlineASR, onlineASR, onlineTA)
	if onlineASR < offlineASR-0.1 {
		t.Fatalf("online ASR %.3f much below offline %.3f", onlineASR, offlineASR)
	}

	// Stealth: the on-disk file is untouched.
	disk, err := sys.ReadFileFromDisk(ocfg.WeightFileName)
	if err != nil {
		t.Fatal(err)
	}
	for i := range disk {
		if disk[i] != cleanFile[i] {
			t.Fatal("disk copy modified — attack is not stealthy")
		}
	}
}

// TestOnlineEndToEndRobustUnderFaults is the acceptance check from the
// robustness work: on a module where every weak cell fails to fire half
// the time, the single-shot engine degrades well below the paper's
// match rates while the 5-round verify/re-hammer engine recovers
// r_match ≥ 95% on the same end-to-end attack.
func TestOnlineEndToEndRobustUnderFaults(t *testing.T) {
	res := trainedVictim(t)
	model := res.Model.Clone()
	out, err := RunOffline(model, res.Test.Head(64), attackConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	cleanModel := res.Model.Clone()
	cleanFile := quant.NewQuantizer(cleanModel).WeightFileBytes()
	reqs := RequirementsFromCodes(out.OrigCodes, out.BackdooredCodes)

	run := func(cfg OnlineConfig) *OnlineResult {
		mod, err := dram.NewModuleForSize(160<<20, dram.PaperDDR3(), 77)
		if err != nil {
			t.Fatal(err)
		}
		sys := memsys.NewSystem(mod)
		sys.InjectFaults(dram.FaultModel{FlipFailProb: 0.5, Seed: 9})
		onres, err := ExecuteOnline(sys, cleanFile, reqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return onres
	}

	filePages := len(cleanFile) / memsys.PageSize
	single := run(DefaultOnlineConfig(filePages))
	robust := run(RobustOnlineConfig(filePages))
	t.Logf("fail 0.5: single shot r_match %.2f%% (%d/%d), robust r_match %.2f%% (%d/%d over %d rounds)",
		single.RMatch, single.NMatch, single.NRequired,
		robust.RMatch, robust.NMatch, robust.NRequired, robust.Report.RoundsExecuted())
	if single.RMatch >= 95 {
		t.Fatalf("single shot r_match %.2f%% under 50%% flip failure — faults had no bite", single.RMatch)
	}
	if robust.RMatch < 95 {
		t.Fatalf("robust engine r_match %.2f%%, want ≥ 95%%", robust.RMatch)
	}
}

func TestExecuteOnlineValidation(t *testing.T) {
	mod, _ := dram.NewModuleForSize(8<<20, dram.PaperDDR3(), 1)
	sys := memsys.NewSystem(mod)
	if _, err := ExecuteOnline(sys, make([]byte, 100), nil, DefaultOnlineConfig(1)); err == nil {
		t.Fatal("unaligned file must fail")
	}
}

// TestOfflineQuantVsFloatEval runs the identical offline attack twice —
// greedy refinement scored on the int8 engine (default) and forced onto
// the fp32 graph — and checks the resulting backdoors are equivalent:
// same flip budget discipline and TA/ASR within the quantization-noise
// tolerance of each other on both evaluation engines.
func TestOfflineQuantVsFloatEval(t *testing.T) {
	res := trainedVictim(t)
	run := func(float32Eval bool) (*Result, *nn.Model) {
		model := res.Model.Clone()
		pages := quant.NewQuantizer(model).NumPages()
		nflip := 5
		if nflip > pages {
			nflip = pages
		}
		cfg := attackConfig(nflip)
		cfg.float32Eval = float32Eval
		out, err := RunOffline(model, res.Test.Head(64), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out, model
	}
	t0 := time.Now()
	outQ, mQ := run(false)
	dQ := time.Since(t0)
	t0 = time.Now()
	outF, mF := run(true)
	dF := time.Since(t0)
	t.Logf("offline attack wall-clock: int8 refine %v, fp32 refine %v", dQ, dF)

	if outQ.NFlip == 0 || outF.NFlip == 0 {
		t.Fatalf("an attack flipped nothing: int8 %d, fp32 %d", outQ.NFlip, outF.NFlip)
	}

	// Score each backdoored model on both inference engines.
	taQ := metrics.TestAccuracy(mQ, res.Test)
	taF := metrics.TestAccuracy(mF, res.Test)
	asrQ := metrics.AttackSuccessRate(mQ, res.Test, outQ.Trigger, 2)
	asrF := metrics.AttackSuccessRate(mF, res.Test, outF.Trigger, 2)
	qmQ := quant.NewQModel(outQ.Quantizer)
	taQ8 := metrics.TestAccuracy(qmQ, res.Test)
	asrQ8 := metrics.AttackSuccessRate(qmQ, res.Test, outQ.Trigger, 2)

	t.Logf("int8-refined: TA %.3f (int8 eval %.3f), ASR %.3f (int8 eval %.3f), NFlip %d",
		taQ, taQ8, asrQ, asrQ8, outQ.NFlip)
	t.Logf("fp32-refined: TA %.3f, ASR %.3f, NFlip %d", taF, asrF, outF.NFlip)

	if d := taQ - taF; d < -0.1 || d > 0.1 {
		t.Fatalf("TA diverges between refinement engines: %.3f vs %.3f", taQ, taF)
	}
	if d := asrQ - asrF; d < -0.15 || d > 0.15 {
		t.Fatalf("ASR diverges between refinement engines: %.3f vs %.3f", asrQ, asrF)
	}
	// The deployed (int8) view of the attacked model must agree with its
	// fp32 twin — same weights, different engine.
	if d := taQ - taQ8; d < -0.05 || d > 0.05 {
		t.Fatalf("TA engine gap: fp32 %.3f vs int8 %.3f", taQ, taQ8)
	}
	if d := asrQ - asrQ8; d < -0.05 || d > 0.05 {
		t.Fatalf("ASR engine gap: fp32 %.3f vs int8 %.3f", asrQ, asrQ8)
	}
}
