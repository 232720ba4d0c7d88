package baselines

import (
	"sync"
	"testing"

	"rowhammer/internal/data"
	"rowhammer/internal/metrics"
	"rowhammer/internal/models"
	"rowhammer/internal/pretrain"
	"rowhammer/internal/quant"
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

func clone(t *testing.T) *pretrain.Result {
	t.Helper()
	r := victim(t)
	m := r.Model.Clone()
	return &pretrain.Result{Model: m, Train: r.Train, Test: r.Test, Accuracy: r.Accuracy}
}

func smallCfg() Config {
	cfg := DefaultConfig(2)
	cfg.Iterations = 60
	cfg.LR = 0.05
	return cfg
}

func TestBadNetInjectsBackdoorWithManyFlips(t *testing.T) {
	r := clone(t)
	// Full-parameter fine-tuning diverges at smallCfg's LR (0.05 is
	// tuned for the last-layer-only baselines); use the default step.
	cfg := smallCfg()
	cfg.LR = 0.01
	out, err := BadNet(r.Model, r.Test.Head(32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	asr := metrics.AttackSuccessRate(r.Model, r.Test, out.Trigger, 2)
	t.Logf("BadNet: NFlip=%d ASR=%.3f", out.NFlip, asr)
	if asr < 0.8 {
		t.Fatalf("BadNet offline ASR %.3f, want high", asr)
	}
	// Unconstrained fine-tuning flips a large share of the bits.
	if out.NFlip < 1000 {
		t.Fatalf("BadNet NFlip = %d, expected thousands", out.NFlip)
	}
}

func TestFTModifiesOnlyLastLayer(t *testing.T) {
	r := clone(t)
	out, err := FT(r.Model, r.Test.Head(32), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if out.NFlip == 0 {
		t.Fatal("FT flipped nothing")
	}
	// The last layer of the tiny model is fc (weight+bias), i.e. the
	// final 170 weights of the file. Every diff must fall there.
	fcStart := len(out.OrigCodes) - 170
	for _, d := range quant.DiffBitsOf(out.OrigCodes, out.BackdooredCodes) {
		if d.Weight < fcStart {
			t.Fatalf("FT modified weight %d outside the last layer (start %d)", d.Weight, fcStart)
		}
	}
	asr := metrics.AttackSuccessRate(r.Model, r.Test, out.Trigger, 2)
	t.Logf("FT: NFlip=%d ASR=%.3f", out.NFlip, asr)
	if asr < 0.5 {
		t.Fatalf("FT offline ASR %.3f too low", asr)
	}
}

func TestTBTModifiesOnlySelectedWeights(t *testing.T) {
	r := clone(t)
	cfg := DefaultTBTConfig(2)
	cfg.Iterations = 60
	cfg.LR = 0.05
	cfg.WB = 8
	out, err := TBT(r.Model, r.Test.Head(32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.NFlip == 0 {
		t.Fatal("TBT flipped nothing")
	}
	// All modified weights must be in the target class's fc row, and at
	// most WB distinct weights may change.
	weights := map[int]bool{}
	for _, d := range quant.DiffBitsOf(out.OrigCodes, out.BackdooredCodes) {
		weights[d.Weight] = true
	}
	if len(weights) > cfg.WB {
		t.Fatalf("TBT modified %d weights, budget %d", len(weights), cfg.WB)
	}
	asr := metrics.AttackSuccessRate(r.Model, r.Test, out.Trigger, 2)
	ta := metrics.TestAccuracy(r.Model, r.Test)
	t.Logf("TBT: NFlip=%d weights=%d TA=%.3f ASR=%.3f", out.NFlip, len(weights), ta, asr)
	if asr < 0.4 {
		t.Fatalf("TBT offline ASR %.3f too low", asr)
	}
}

func TestBaselineValidation(t *testing.T) {
	r := clone(t)
	bad := smallCfg()
	bad.TargetClass = -1
	if _, err := BadNet(r.Model, r.Test.Head(8), bad); err == nil {
		t.Fatal("bad target must fail")
	}
	bad = smallCfg()
	bad.Iterations = 0
	if _, err := FT(r.Model, r.Test.Head(8), bad); err == nil {
		t.Fatal("zero iterations must fail")
	}
	tcfg := DefaultTBTConfig(2)
	tcfg.WB = 0
	if _, err := TBT(r.Model, r.Test.Head(8), tcfg); err == nil {
		t.Fatal("WB=0 must fail")
	}
}
