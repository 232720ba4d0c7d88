package pretrain

import (
	"bytes"
	"slices"
	"testing"

	"rowhammer/internal/data"
	"rowhammer/internal/metrics"
	"rowhammer/internal/models"
	"rowhammer/internal/nn"
	"rowhammer/internal/quant"
)

func smallCfg() Config {
	return Config{
		Model:        models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 1},
		Data:         data.SynthCIFAR(0, 7),
		TrainSamples: 600,
		TestSamples:  200,
		Epochs:       3,
		BatchSize:    32,
		Seed:         1,
	}
}

func TestTrainReachesHighAccuracy(t *testing.T) {
	if testing.Short() {
		// The TrainCached-based tests below still exercise one full
		// training run in short mode; this one would add a second.
		t.Skip("heavy: duplicate uncached training run; run without -short")
	}
	r, err := Train(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy < 0.85 {
		t.Fatalf("clean accuracy %.3f, want ≥0.85 on the synthetic task", r.Accuracy)
	}
	if len(r.LossHistory) != 3 {
		t.Fatalf("loss history %v", r.LossHistory)
	}
	if r.LossHistory[len(r.LossHistory)-1] >= r.LossHistory[0] {
		t.Fatal("training loss did not decrease")
	}
}

func TestTrainCachedReturnsSameInstance(t *testing.T) {
	a, err := TrainCached(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainCached(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache must return the same result instance")
	}
}

func TestCloneModelPreservesBehavior(t *testing.T) {
	cfg := smallCfg()
	r, err := TrainCached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Clone matches a rebuild-and-copy only while the source is neither
	// frozen nor tapped in place: a trained victim must be neither.
	nn.Walk(r.Model.Root, func(l nn.Layer) {
		switch l := l.(type) {
		case *nn.BatchNorm2D:
			if l.Frozen {
				t.Fatal("cached victim has a frozen batch-norm layer")
			}
		case *nn.Tap:
			t.Fatal("cached victim holds a Tap layer")
		}
	})
	clone, err := CloneModel(cfg.Model, r.Model)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(quant.NewQuantizer(clone).WeightFileBytes(), quant.NewQuantizer(r.Model).WeightFileBytes()) {
		t.Fatal("clone's weight file differs from the source's")
	}
	srcBNs, cloneBNs := batchNorms(r.Model), batchNorms(clone)
	if len(srcBNs) == 0 || len(srcBNs) != len(cloneBNs) {
		t.Fatalf("batch-norm layers: source %d, clone %d", len(srcBNs), len(cloneBNs))
	}
	for i, bn := range srcBNs {
		if !slices.Equal(bn.RunningMean, cloneBNs[i].RunningMean) || !slices.Equal(bn.RunningVar, cloneBNs[i].RunningVar) {
			t.Fatalf("batch-norm %d: clone's running statistics differ from the source's", i)
		}
	}
	accOrig := metrics.TestAccuracy(r.Model, r.Test)
	accClone := metrics.TestAccuracy(clone, r.Test)
	if accOrig != accClone {
		t.Fatalf("clone accuracy %.4f != original %.4f", accClone, accOrig)
	}
	// Mutating the clone must not affect the original.
	clone.Params()[0].W.Data()[0] += 100
	if r.Model.Params()[0].W.Data()[0] == clone.Params()[0].W.Data()[0] {
		t.Fatal("clone shares weight storage")
	}
}

func batchNorms(m *nn.Model) []*nn.BatchNorm2D {
	var bns []*nn.BatchNorm2D
	nn.Walk(m.Root, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			bns = append(bns, bn)
		}
	})
	return bns
}

func TestTrainInvalidModel(t *testing.T) {
	cfg := smallCfg()
	cfg.Model.Arch = "nope"
	if _, err := Train(cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestMetricsASROnCleanModelIsLow(t *testing.T) {
	r, err := TrainCached(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	tr := data.NewSquareTrigger(3, 32, 32, 10)
	asr := metrics.AttackSuccessRate(r.Model, r.Test, tr, 2)
	if asr > 0.35 {
		t.Fatalf("clean model ASR %.3f suspiciously high", asr)
	}
}
