package core

import (
	"fmt"
	"testing"

	"rowhammer/internal/data"
	"rowhammer/internal/models"
	"rowhammer/internal/nn"
	"rowhammer/internal/pretrain"
	"rowhammer/internal/tensor"
)

// BenchmarkTrainStep measures one batch-32 ResNet-20 forward+backward —
// the unit of work Algorithm 1 repeats hundreds of times — on the
// direct single-graph path. The trainer_pair and trainer_sequential
// entries time one full CFT+BR iteration's gradient work (a clean and a
// triggered term, as RunOffline runs them) as one ForwardBackwardPair
// and as two sequential ForwardBackward calls; allocation counts show
// the trainer reuses every buffer after warmup. Those entries feed
// Gaussian noise to an untrained net, so every ReLU sign is a coin
// flip; trainer_pair_victim times the same pair on what RunOffline
// really sees: the trained reference victim (rowhammer.TrainVictim's
// defaults at seed 1) on its 32-image attack batch and that batch with
// the trigger stamped.
func BenchmarkTrainStep(b *testing.B) {
	x := tensor.New(32, 3, 32, 32)
	tensor.NewRNG(1).FillNormal(x, 0, 1)
	labels := make([]int, 32)

	buildVictim := func() *nn.Model {
		m, err := models.Build(models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		nn.FreezeBatchNorm(m.Root)
		return m
	}

	b.Run("direct", func(b *testing.B) {
		m := buildVictim()
		// Two warmup steps populate the layer scratch caches so short
		// runs report steady-state allocations, not first-call setup.
		for i := 0; i < 2; i++ {
			m.ZeroGrad()
			out := m.Forward(x, true)
			_, grad := nn.CrossEntropy(out, labels, 1)
			m.Backward(grad)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ZeroGrad()
			out := m.Forward(x, true)
			_, grad := nn.CrossEntropy(out, labels, 1)
			m.Backward(grad)
		}
	})

	xTrig := x.Clone()
	data.NewSquareTrigger(3, 32, 32, 10).Apply(xTrig)
	targets := make([]int, 32)
	for i := range targets {
		targets[i] = 2
	}
	for _, pair := range []bool{true, false} {
		name := "trainer_sequential"
		if pair {
			name = "trainer_pair"
		}
		b.Run(name, func(b *testing.B) {
			m := buildVictim()
			tr := nn.NewTrainer(m, nn.DefaultTrainShards)
			step := func() {
				m.ZeroGrad()
				if pair {
					tr.ForwardBackwardPair(x, labels, 0.5, xTrig, targets, 0.5)
					return
				}
				tr.ForwardBackward(x, labels, 0.5)
				tr.ForwardBackward(xTrig, targets, 0.5)
			}
			for i := 0; i < 2; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}

	b.Run("trainer_pair_victim", func(b *testing.B) {
		mcfg := models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 1}
		res, err := pretrain.TrainCached(pretrain.Config{Model: mcfg, Data: data.SynthCIFAR(0, 1), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		m := res.Model.Clone()
		nn.FreezeBatchNorm(m.Root)
		batch := res.Test.Head(32).Batches(32)[0]
		trig := batch.Images.Clone()
		data.NewSquareTrigger(3, 32, 32, DefaultConfig(1, 2).TriggerSize).Apply(trig)
		tr := nn.NewTrainer(m, nn.DefaultTrainShards)
		step := func() {
			m.ZeroGrad()
			tr.ForwardBackwardPair(batch.Images, batch.Labels, 0.5, trig, targets, 0.5)
		}
		for i := 0; i < 2; i++ {
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
}

// BenchmarkOfflineAttack is the full RunOffline wall-clock at the
// reference settings (w0.25 ResNet-20, 100 iterations, 64 attack
// images) — the number EXPERIMENTS.md quotes — at tensor.MaxWorkers
// bounds 1 and 4. One op is one complete attack, so the benchmark
// self-terminates after a single iteration at the default -benchtime.
func BenchmarkOfflineAttack(b *testing.B) {
	dcfg := data.SynthCIFAR(0, 21)
	dcfg.Samples = 64
	attackSet := data.Synthesize(dcfg, 42)

	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("w025_workers%d", workers), func(b *testing.B) {
			defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(workers))
			cfg := DefaultConfig(5, 2)
			cfg.Iterations = 100
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := models.Build(models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := RunOffline(m, attackSet, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
