package metrics

import (
	"math"
	"testing"

	"rowhammer/internal/data"
	"rowhammer/internal/models"
	"rowhammer/internal/nn"
	"rowhammer/internal/quant"
	"rowhammer/internal/tensor"
)

// constModel always predicts the class equal to its fixed output.
func constModel(classes, winner int) *nn.Model {
	rng := tensor.NewRNG(1)
	fc := nn.NewLinear("fc", rng, 3*8*8, classes)
	fc.Weight.W.Zero()
	fc.Bias.W.Zero()
	fc.Bias.W.Data()[winner] = 10
	net := nn.NewSequential(nn.NewFlatten(), fc)
	return nn.NewModel("const", net, classes, [3]int{3, 8, 8})
}

func smallDataset(n, classes int) *data.Dataset {
	cfg := data.SynthConfig{Classes: classes, Samples: n, H: 8, W: 8, Noise: 0.05, Seed: 4}
	return data.Synthesize(cfg, 9)
}

func TestTestAccuracyConstModel(t *testing.T) {
	ds := smallDataset(40, 4)
	m := constModel(4, 1)
	got := TestAccuracy(m, ds)
	// Balanced labels: a constant predictor scores exactly 1/classes.
	if math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("TA = %v, want 0.25", got)
	}
}

func TestAttackSuccessRateExcludesTargetClass(t *testing.T) {
	ds := smallDataset(40, 4)
	m := constModel(4, 2)
	tr := data.NewSquareTrigger(3, 8, 8, 2)
	// The constant model sends everything to class 2, so every
	// non-class-2 sample counts as a hit: ASR = 1.
	if got := AttackSuccessRate(m, ds, tr, 2); got != 1 {
		t.Fatalf("ASR = %v, want 1", got)
	}
	// Against a different target nothing hits.
	if got := AttackSuccessRate(m, ds, tr, 0); got != 0 {
		t.Fatalf("ASR = %v, want 0", got)
	}
}

func TestNFlipMatchesHamming(t *testing.T) {
	a := []int8{0, 1, 2}
	b := []int8{1, 1, 3}
	if NFlip(a, b) != quant.HammingDistance(a, b) {
		t.Fatal("NFlip must be the Hamming distance")
	}
}

func TestRMatchFormula(t *testing.T) {
	// r = n/N × (1 − δ/S) × 100 with S = 32768 bits.
	got := RMatch(10, 10, 0)
	if math.Abs(got-100) > 1e-9 {
		t.Fatalf("perfect match = %v", got)
	}
	got = RMatch(5, 10, 0)
	if math.Abs(got-50) > 1e-9 {
		t.Fatalf("half match = %v", got)
	}
	// δ = 4 accidental flips per page, the paper's 7-sided figure:
	// (1 − 4/32768) ≈ 0.99988.
	got = RMatch(10, 10, 4)
	if math.Abs(got-99.9878) > 0.01 {
		t.Fatalf("with δ=4: %v", got)
	}
	if RMatch(0, 0, 0) != 0 {
		t.Fatal("zero flips must give zero rate")
	}
	if RMatch(1, 1, 1e9) != 0 {
		t.Fatal("absurd δ must clamp at zero")
	}
}

func TestTestAccuracyEmptyDataset(t *testing.T) {
	m := constModel(3, 0)
	empty := &data.Dataset{Images: tensor.New(1, 3, 8, 8), Labels: nil, Classes: 3}
	// Zero labeled samples → zero accuracy, no panic.
	if got := TestAccuracy(m, &data.Dataset{Images: empty.Images.Reshape(1, 3, 8, 8), Labels: []int{}, Classes: 3}); got != 0 {
		t.Fatalf("TA on empty = %v", got)
	}
}

// quantPredictor builds a trained-shape resnet20 int8 engine plus its
// fp32 twin for the parallel/sequential and engine-agreement checks.
func quantPredictor(t testing.TB) (*quant.QModel, *nn.Model, *data.Dataset) {
	m, err := models.Build(models.Config{Arch: "resnet20", Classes: 4, WidthMult: 0.25, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	q := quant.NewQuantizer(m)
	cfg := data.SynthConfig{Classes: 4, Samples: 160, H: 32, W: 32, Noise: 0.05, Seed: 21}
	return quant.NewQModel(q), m, data.Synthesize(cfg, 33)
}

// TestMetricsParallelMatchesSequential pins the worker pool to one
// thread, records every metric, then re-runs fully parallel on the
// concurrency-safe int8 engine. The int8 forward is deterministic
// (exact int32 accumulation), so both metrics must agree exactly.
func TestMetricsParallelMatchesSequential(t *testing.T) {
	qm, _, ds := quantPredictor(t)
	if !qm.ConcurrentSafe() {
		t.Fatal("resnet20 quant plan must be concurrency-safe")
	}
	tr := data.NewSquareTrigger(3, 32, 32, 3)

	prev := tensor.SetMaxWorkers(1)
	seqTA := TestAccuracy(qm, ds)
	seqASR := AttackSuccessRate(qm, ds, tr, 2)
	tensor.SetMaxWorkers(prev)

	parTA := TestAccuracy(qm, ds)
	parASR := AttackSuccessRate(qm, ds, tr, 2)

	if seqTA != parTA {
		t.Fatalf("TA sequential %v != parallel %v", seqTA, parTA)
	}
	if seqASR != parASR {
		t.Fatalf("ASR sequential %v != parallel %v", seqASR, parASR)
	}
}

// serialOnly hides the underlying engine's ConcurrentSafe method, so an
// Evaluator built over it must take the single-worker fallback path.
type serialOnly struct{ m Predictor }

func (s serialOnly) Predict(x *tensor.Tensor) []int { return s.m.Predict(x) }

// TestEvaluatorFallbackDeterminism covers the serialized fallback of
// the hoisted fan-out decision: an Evaluator over a predictor that does
// not declare ConcurrentSafe must run one worker and produce exactly
// the numbers the concurrent evaluator computes over the same engine.
func TestEvaluatorFallbackDeterminism(t *testing.T) {
	qm, _, ds := quantPredictor(t)
	tr := data.NewSquareTrigger(3, 32, 32, 3)

	conc := NewEvaluator(qm)
	if conc.Workers() < 1 {
		t.Fatalf("concurrent evaluator workers = %d", conc.Workers())
	}
	serial := NewEvaluator(serialOnly{qm})
	if got := serial.Workers(); got != 1 {
		t.Fatalf("fallback evaluator workers = %d, want 1", got)
	}

	if a, b := conc.TestAccuracy(ds), serial.TestAccuracy(ds); a != b {
		t.Fatalf("TA concurrent %v != fallback %v", a, b)
	}
	if a, b := conc.AttackSuccessRate(ds, tr, 2), serial.AttackSuccessRate(ds, tr, 2); a != b {
		t.Fatalf("ASR concurrent %v != fallback %v", a, b)
	}
}

// TestMetricsQuantAgreesWithFloat checks the two engines see the same
// dataset-level numbers within the quantization tolerance (TA/ASR are
// fractions over 160 samples, so a handful of borderline samples is the
// most the int8 noise may move).
func TestMetricsQuantAgreesWithFloat(t *testing.T) {
	qm, m, ds := quantPredictor(t)
	taQ, taF := TestAccuracy(qm, ds), TestAccuracy(m, ds)
	if math.Abs(taQ-taF) > 0.05 {
		t.Fatalf("TA int8 %v vs fp32 %v", taQ, taF)
	}
	tr := data.NewSquareTrigger(3, 32, 32, 3)
	asrQ, asrF := AttackSuccessRate(qm, ds, tr, 1), AttackSuccessRate(m, ds, tr, 1)
	if math.Abs(asrQ-asrF) > 0.05 {
		t.Fatalf("ASR int8 %v vs fp32 %v", asrQ, asrF)
	}
}

// benchEvalTAASR measures one full TA + ASR evaluation pass — the unit
// of work the offline attack's constraint loop and the defense suite
// repeat thousands of times — single-threaded so the speedup reflects
// engine efficiency, not core count.
func benchEvalTAASR(b *testing.B, quantized bool) {
	qm, m, ds := quantPredictor(b)
	var p Predictor = m
	if quantized {
		p = qm
	}
	tr := data.NewSquareTrigger(3, 32, 32, 3)
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	defer nn.SetBatchWorkers(nn.SetBatchWorkers(1))
	TestAccuracy(p, ds) // warm pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TestAccuracy(p, ds)
		AttackSuccessRate(p, ds, tr, 1)
	}
}

func BenchmarkEvalTAASRQuant(b *testing.B) { benchEvalTAASR(b, true) }
func BenchmarkEvalTAASRFloat(b *testing.B) { benchEvalTAASR(b, false) }
