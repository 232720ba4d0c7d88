// Command calibrate sweeps attack hyperparameters on a small victim to
// tune the offline-phase defaults. It is a development tool, not part
// of the reproduction pipeline.
package main

import (
	"fmt"
	"time"

	"rowhammer/internal/core"
	"rowhammer/internal/data"
	"rowhammer/internal/metrics"
	"rowhammer/internal/models"
	"rowhammer/internal/pretrain"
)

type trial struct {
	eta     float32
	iters   int
	brEvery int
	alpha   float32
	eps     float32
	nflip   int
	batch   int
	refine  bool
}

func main() {
	pcfg := pretrain.Config{
		Model:        models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 21},
		Data:         data.SynthCIFAR(0, 21),
		TrainSamples: 600,
		TestSamples:  300,
		Epochs:       3,
		BatchSize:    32,
		Seed:         21,
	}
	res, err := pretrain.TrainCached(pcfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("clean TA %.3f\n", res.Accuracy)
	trials := []trial{
		{2, 100, 50, 0.5, 0.02, 3, 32, true},
		{2, 100, 50, 0.5, 0.02, 5, 32, true},
		{2, 150, 50, 0.5, 0.02, 5, 48, true},
		{3, 100, 50, 0.6, 0.03, 5, 32, true},
	}
	for _, tr := range trials {
		m := res.Model.Clone()
		cfg := core.DefaultConfig(tr.nflip, 2)
		cfg.Eta = tr.eta
		cfg.Iterations = tr.iters
		cfg.BitReduceEvery = tr.brEvery
		cfg.Alpha = tr.alpha
		cfg.Epsilon = tr.eps
		cfg.GreedyRefine = tr.refine
		t0 := time.Now()
		out, err := core.RunOffline(m, res.Test.Head(tr.batch), cfg)
		if err != nil {
			panic(err)
		}
		ta := metrics.TestAccuracy(m, res.Test)
		asr := metrics.AttackSuccessRate(m, res.Test, out.Trigger, 2)
		fmt.Printf("eta=%.0f it=%d br=%d a=%.2f eps=%.3f nflip=%d refine=%v -> NFlip=%d TA=%.3f ASR=%.3f (%.0fs)\n",
			tr.eta, tr.iters, tr.brEvery, tr.alpha, tr.eps, tr.nflip, tr.refine, out.NFlip, ta, asr, time.Since(t0).Seconds())
	}
}
