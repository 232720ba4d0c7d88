package defense

import (
	"sync"
	"testing"
	"time"

	"rowhammer/internal/data"
	"rowhammer/internal/metrics"
	"rowhammer/internal/models"
	"rowhammer/internal/nn"
	"rowhammer/internal/pretrain"
	"rowhammer/internal/quant"
	"rowhammer/internal/tensor"
)

var (
	once sync.Once
	res  *pretrain.Result
	rerr error
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

func victim(t *testing.T) *pretrain.Result {
	t.Helper()
	if testing.Short() {
		t.Skip("heavy: trains a victim model; run without -short")
	}
	once.Do(func() { res, rerr = pretrain.Train(victimCfg()) })
	if rerr != nil {
		t.Fatal(rerr)
	}
	return res
}

func cloneModel(t *testing.T) *nn.Model {
	t.Helper()
	return victim(t).Model.Clone()
}

func TestAnalyzeBinarizationShrinksPages(t *testing.T) {
	m := cloneModel(t)
	// Assume ~90% of params are binarizable convolutions.
	info := AnalyzeBinarization(m, m.NumParams()*9/10)
	if info.BinarizedPages >= info.FullPrecisionPages {
		t.Fatalf("binarization did not shrink pages: %d vs %d",
			info.BinarizedPages, info.FullPrecisionPages)
	}
	if info.MaxNFlip != info.BinarizedPages {
		t.Fatal("MaxNFlip must equal the binarized page count")
	}
}

func TestCountBinarizableParams(t *testing.T) {
	m, err := models.Build(models.Config{Arch: "bin-resnet32", Classes: 10, WidthMult: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := CountBinarizableParams(m.Root, func(l nn.Layer) (int, bool) {
		if bc, ok := l.(*models.BinConv2D); ok {
			return bc.Params()[0].W.Len(), true
		}
		return 0, false
	})
	if n == 0 {
		t.Fatal("no binarizable params found in bin-resnet32")
	}
	if n >= m.NumParams() {
		t.Fatal("stem/bn/fc must remain full precision")
	}
}

func TestPWCIncreasesClustering(t *testing.T) {
	m := cloneModel(t)
	before := ClusteringScore(m)
	cfg := DefaultPWCConfig()
	cfg.Iterations = 15
	PWCFineTune(m, victim(t).Train.Head(128), cfg)
	after := ClusteringScore(m)
	if after >= before {
		t.Fatalf("PWC did not cluster weights: %.4f → %.4f", before, after)
	}
	// The model must remain usable.
	ta := metrics.TestAccuracy(m, victim(t).Test)
	if ta < 0.6 {
		t.Fatalf("PWC destroyed accuracy: %.3f", ta)
	}
}

func TestDeepDyveMissesPersistentFaults(t *testing.T) {
	r := victim(t)
	main := cloneModel(t)
	// Corrupt the main model to emulate a persistent Rowhammer fault
	// that changes some outputs.
	q := quant.NewQuantizer(main)
	for i := 0; i < q.NumWeights(); i += q.NumWeights() / 8 {
		q.FlipBit(i, 7)
	}
	checker := cloneModel(t) // the (clean) distilled checker
	dd := &DeepDyve{Main: main, Checker: checker}

	trigger := data.NewSquareTrigger(3, 32, 32, 10)
	rep := EvaluateDeepDyve(dd, r.Test.Head(128), trigger, 2)
	if rep.RecoveredRate != 0 {
		t.Fatalf("re-running a persistently corrupted model cannot recover, got %.3f", rep.RecoveredRate)
	}
	// With clean checker vs corrupted main there must be alarms, but
	// alarms alone do not stop the mispredictions.
	if rep.AlarmRate == 0 {
		t.Fatal("checker should disagree with a heavily corrupted model")
	}
}

func TestWeightEncoderDetectsFlip(t *testing.T) {
	codes := make([]int8, 2048)
	for i := range codes {
		codes[i] = int8(i % 127)
	}
	enc := NewWeightEncoder(len(codes), 8, 1)
	enc.Encode(codes)
	if ok, _ := enc.Verify(codes); !ok {
		t.Fatal("clean verify failed")
	}
	codes[77] ^= int8(-128) // MSB flip
	ok, elapsed := enc.Verify(codes)
	if ok {
		t.Fatal("encoder missed a bit flip")
	}
	if elapsed <= 0 {
		t.Fatal("no cost measured")
	}
	if enc.StorageOverheadBytes() <= 0 {
		t.Fatal("no storage overhead reported")
	}
}

func TestEstimateEncodingOverheadScalesQuadratically(t *testing.T) {
	v1, s1 := EstimateEncodingOverhead(1000, 1000, time.Nanosecond)
	v2, s2 := EstimateEncodingOverhead(2000, 2000, time.Nanosecond)
	if v2 != 4*v1 {
		t.Fatalf("verify cost should scale with N·M: %v vs %v", v1, v2)
	}
	if s2 <= s1 {
		t.Fatal("storage ratio should grow with signature length")
	}
}

func TestRADARDetectsMSBFlipAndMissesAdaptive(t *testing.T) {
	codes := make([]int8, 4096)
	for i := range codes {
		codes[i] = int8((i * 31) % 120)
	}
	r := NewRADAR(512, 0x80)
	r.Snapshot(codes)
	if r.Detected(codes) {
		t.Fatal("clean codes flagged")
	}
	// MSB flip → detected.
	attacked := append([]int8(nil), codes...)
	attacked[100] = int8(byte(attacked[100]) ^ 0x80)
	bad, elapsed := r.Check(attacked)
	if len(bad) != 1 || bad[0] != 0 {
		t.Fatalf("bad groups = %v, want [0]", bad)
	}
	if elapsed < 0 {
		t.Fatal("negative elapsed")
	}
	// Adaptive attacker flips only bits 0-6 → undetected.
	adaptive := append([]int8(nil), codes...)
	adaptive[100] = int8(byte(adaptive[100]) ^ 0x40)
	if r.Detected(adaptive) {
		t.Fatal("RADAR with MSB mask must miss a bit-6 flip")
	}
	// Full-mask RADAR catches it, at proportional extra scan cost.
	full := NewRADAR(512, 0xFF)
	full.Snapshot(codes)
	if !full.Detected(adaptive) {
		t.Fatal("full-mask RADAR must detect any flip")
	}
}

func TestSaliencyFocusShiftsWithBackdooredWeights(t *testing.T) {
	r := victim(t)
	clean := cloneModel(t)
	tap, err := InstallGradCAMTap(clean)
	if err != nil {
		t.Fatal(err)
	}
	trigger := data.NewSquareTrigger(3, 32, 32, 10)

	heat, err := GradCAM(clean, tap, r.Test.Image(0), 2)
	if err != nil {
		t.Fatal(err)
	}
	ratio := TriggerFocusRatio(heat, trigger)
	if ratio < 0 || ratio > 1 {
		t.Fatalf("focus ratio %v out of range", ratio)
	}

	// Whether focus moves toward the trigger depends on the attack, so
	// here we verify the report mechanics.
	rep, err := EvaluateGradCAM(clean, cloneModel(t), r.Test, trigger, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CleanFocus < 0 || rep.CleanFocus > 1 {
		t.Fatalf("clean focus %v out of range", rep.CleanFocus)
	}
	if want := 100.0 / (32 * 32); rep.MaskArea != want {
		t.Fatalf("mask area %v, want %v", rep.MaskArea, want)
	}
}

func TestReconstructorDilutesSingleWeightExcursion(t *testing.T) {
	m := cloneModel(t)
	rec := NewReconstructor(m, 64)
	p := m.Params()[0] // conv1 weight: large enough for a full group
	if p.W.Len() < 64 {
		t.Fatalf("test assumes ≥64 weights in %s", p.Name)
	}
	orig := p.W.Data()[0]
	p.W.Data()[0] = orig + 10 // a bit-flip-sized excursion

	undo := rec.Apply(m)
	afterRecon := p.W.Data()[0]
	if !(afterRecon < orig+10) {
		t.Fatal("reconstruction did not reduce the excursion")
	}
	// Group sum must be restored to the recorded value.
	var s float64
	for _, v := range p.W.Data()[:64] {
		s += float64(v)
	}
	undo()
	if p.W.Data()[0] != orig+10 {
		t.Fatal("undo did not restore weights")
	}
}

func TestReconstructorWrapLossRestoresWeights(t *testing.T) {
	m := cloneModel(t)
	rec := NewReconstructor(m, 64)
	p := m.Params()[0]
	p.W.Data()[3] += 5
	before := append([]float32(nil), p.W.Data()...)
	wrap := rec.WrapLossWith(m)
	got := wrap(func() float32 {
		// Inside the wrapper the excursion is diluted.
		if p.W.Data()[3] >= before[3] {
			t.Error("wrapper did not apply reconstruction")
		}
		return 42
	})
	if got != 42 {
		t.Fatal("wrapper must pass the loss through")
	}
	for i := range before {
		if p.W.Data()[i] != before[i] {
			t.Fatal("wrapper did not restore weights")
		}
	}
}

func TestSaliencyDeterministic(t *testing.T) {
	m := cloneModel(t)
	tap, err := InstallGradCAMTap(m)
	if err != nil {
		t.Fatal(err)
	}
	img := victim(t).Test.Image(1)
	a, err := GradCAM(m, tap, img, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GradCAM(m, tap, img, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("Grad-CAM heatmap not deterministic")
		}
	}
}

func TestGradCAMTapAndHeatmap(t *testing.T) {
	m := cloneModel(t)
	tap, err := InstallGradCAMTap(m)
	if err != nil {
		t.Fatal(err)
	}
	r := victim(t)
	heat, err := GradCAM(m, tap, r.Test.Image(0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if heat.Dim(0) != 32 || heat.Dim(1) != 32 {
		t.Fatalf("heatmap shape %v", heat.Shape())
	}
	var mass float64
	for _, v := range heat.Data() {
		if v < 0 {
			t.Fatal("Grad-CAM heat must be non-negative (ReLU)")
		}
		mass += float64(v)
	}
	// The tapped model must still classify identically.
	m2 := cloneModel(t)
	p1 := m.Predict(r.Test.Images)
	p2 := m2.Predict(r.Test.Images)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("tap changed model behavior")
		}
	}
	// Bad class index must error.
	if _, err := GradCAM(m, tap, r.Test.Image(0), 99); err == nil {
		t.Fatal("out-of-range class must error")
	}
}

func TestInstallGradCAMTapRequiresGAP(t *testing.T) {
	rng := tensor.NewRNG(1)
	m := nn.NewModel("flat", nn.NewSequential(
		nn.NewFlatten(), nn.NewLinear("fc", rng, 3*32*32, 10),
	), 10, [3]int{3, 32, 32})
	if _, err := InstallGradCAMTap(m); err == nil {
		t.Fatal("model without GlobalAvgPool must be rejected")
	}
}

func TestEvaluateGradCAMIdenticalModels(t *testing.T) {
	r := victim(t)
	a := cloneModel(t)
	b := cloneModel(t)
	trigger := data.NewSquareTrigger(3, 32, 32, 10)
	rep, err := EvaluateGradCAM(a, b, r.Test, trigger, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CleanFocus != rep.BackdooredFocus {
		t.Fatal("identical models must report identical Grad-CAM focus")
	}
}

// TestDeepDyveQuantEngine runs the DeepDyve protocol with both engines
// on the deployment-form int8 path and checks it reaches the same
// verdicts as the fp32 pair on the identical corrupted weights — and
// that the parallel (concurrency-safe) evaluation matches a pinned
// single-worker run exactly.
func TestDeepDyveQuantEngine(t *testing.T) {
	r := victim(t)
	corrupt := func(m *nn.Model) *quant.Quantizer {
		q := quant.NewQuantizer(m)
		for i := 0; i < q.NumWeights(); i += q.NumWeights() / 8 {
			q.FlipBit(i, 7)
		}
		return q
	}
	mainF := cloneModel(t)
	qMain := corrupt(mainF)
	mainQ := quant.NewQModel(qMain)
	checkF := cloneModel(t)
	checkQ := quant.NewQModel(quant.NewQuantizer(checkF))
	if !mainQ.ConcurrentSafe() || !checkQ.ConcurrentSafe() {
		t.Fatal("resnet20 engines must be concurrency-safe")
	}

	trigger := data.NewSquareTrigger(3, 32, 32, 10)
	ds := r.Test.Head(128)
	ddF := &DeepDyve{Main: mainF, Checker: checkF}
	ddQ := &DeepDyve{Main: mainQ, Checker: checkQ}
	t0 := time.Now()
	repF := EvaluateDeepDyve(ddF, ds, trigger, 2)
	dF := time.Since(t0)
	t0 = time.Now()
	repQ := EvaluateDeepDyve(ddQ, ds, trigger, 2)
	dQ := time.Since(t0)
	t.Logf("DeepDyve sweep wall-clock: fp32 %v, int8 %v", dF, dQ)

	prev := tensor.SetMaxWorkers(1)
	repSeq := EvaluateDeepDyve(ddQ, ds, trigger, 2)
	tensor.SetMaxWorkers(prev)
	if repSeq != repQ {
		t.Fatalf("parallel report %+v differs from sequential %+v", repQ, repSeq)
	}

	if repQ.RecoveredRate != 0 {
		t.Fatalf("int8 re-run cannot recover persistent faults, got %.3f", repQ.RecoveredRate)
	}
	if d := repQ.AlarmRate - repF.AlarmRate; d < -0.1 || d > 0.1 {
		t.Fatalf("alarm rate diverges across engines: int8 %.3f vs fp32 %.3f", repQ.AlarmRate, repF.AlarmRate)
	}
	if d := repQ.ASRDespiteDefense - repF.ASRDespiteDefense; d < -0.1 || d > 0.1 {
		t.Fatalf("ASR-despite-defense diverges: int8 %.3f vs fp32 %.3f", repQ.ASRDespiteDefense, repF.ASRDespiteDefense)
	}
}
