// Package experiments contains one driver per table and figure of the
// paper's evaluation (§V, §VI, Appendix). Drivers return structured
// rows/series; cmd/experiments and the top-level benchmarks format and
// regenerate them. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"

	"rowhammer/internal/core"
	"rowhammer/internal/data"
	"rowhammer/internal/models"
	"rowhammer/internal/pretrain"
)

// Scale trades fidelity against CPU time. QuickScale runs in seconds to
// minutes on a laptop; PaperScale approaches the paper's settings
// (width 1.0 models, 128-image attack sets) and takes hours.
type Scale struct {
	// WidthMult scales model channel counts.
	WidthMult float64
	// TrainSamples/TestSamples/Epochs size the clean pretraining.
	TrainSamples int
	TestSamples  int
	Epochs       int
	// AttackImages is the attacker's test-subset size (128 in the
	// paper's CIFAR experiments).
	AttackImages int
	// AttackIterations, BitReduceEvery, Eta, Epsilon drive Algorithm 1.
	AttackIterations int
	BitReduceEvery   int
	Eta              float32
	Epsilon          float32
	// BaselineIterations and BaselineLR drive BadNet/FT/TBT.
	BaselineIterations int
	BaselineLR         float32
	// ModuleMB sizes the simulated DRAM for online phases.
	ModuleMB int
	// TargetClass is the backdoor target.
	TargetClass int
	// Seed fixes every random stream.
	Seed int64
}

// QuickScale returns the CI-friendly configuration used by the test
// suite and default benchmarks.
func QuickScale() Scale {
	return Scale{
		WidthMult:          0.25,
		TrainSamples:       600,
		TestSamples:        300,
		Epochs:             3,
		AttackImages:       32,
		AttackIterations:   100,
		BitReduceEvery:     50,
		Eta:                2,
		Epsilon:            0.02,
		BaselineIterations: 60,
		BaselineLR:         0.05,
		ModuleMB:           192,
		TargetClass:        2,
		Seed:               3,
	}
}

// PaperScale approaches the paper's experimental settings. Expect hours
// of CPU time per table.
func PaperScale() Scale {
	s := QuickScale()
	s.WidthMult = 1.0
	s.TrainSamples = 4000
	s.TestSamples = 1000
	s.Epochs = 6
	s.AttackImages = 128
	s.AttackIterations = 300
	s.BitReduceEvery = 100
	s.ModuleMB = 256
	return s
}

// victim trains (or fetches the cached) clean model for an architecture
// on the matching synthetic task.
func victim(arch string, s Scale) (*pretrain.Result, error) {
	// The synthetic task is fixed (seed 21) so different Scale seeds
	// compare models, not datasets.
	const taskSeed = 21
	classes := 10
	dcfg := data.SynthCIFAR(0, taskSeed)
	if arch == "resnet34" || arch == "resnet50" {
		// The paper evaluates these on ImageNet; we use the 100-class
		// synthetic stand-in (see DESIGN.md).
		classes = 100
		dcfg = data.SynthImageNet(0, taskSeed)
	}
	res, err := pretrain.TrainCached(pretrain.Config{
		Model:        models.Config{Arch: arch, Classes: classes, WidthMult: s.WidthMult, Seed: s.Seed},
		Data:         dcfg,
		TrainSamples: s.TrainSamples,
		TestSamples:  s.TestSamples,
		Epochs:       s.Epochs,
		BatchSize:    32,
		Seed:         s.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: train %s: %w", arch, err)
	}
	return res, nil
}

// attackConfig maps a Scale onto the Algorithm 1 configuration.
func attackConfig(s Scale, nflip int, bitReduce bool) core.Config {
	cfg := core.DefaultConfig(nflip, s.TargetClass)
	cfg.Iterations = s.AttackIterations
	cfg.BitReduceEvery = s.BitReduceEvery
	cfg.Eta = s.Eta
	cfg.Epsilon = s.Epsilon
	cfg.BitReduce = bitReduce
	return cfg
}
