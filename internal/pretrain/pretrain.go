// Package pretrain trains the clean victim models on the synthetic
// tasks. The paper downloads pre-trained CIFAR-10/ImageNet weights; this
// offline reproduction trains from scratch (seconds of CPU time on the
// synthetic tasks), and caches trained models per configuration so
// experiment drivers can share one clean model.
package pretrain

import (
	"fmt"
	"sync"

	"rowhammer/internal/data"
	"rowhammer/internal/metrics"
	"rowhammer/internal/models"
	"rowhammer/internal/nn"
	"rowhammer/internal/tensor"
)

// Config selects a training run. Identical configs produce identical
// models.
type Config struct {
	// Model selects the architecture.
	Model models.Config
	// Data selects the synthetic task.
	Data data.SynthConfig
	// TrainSamples and TestSamples size the splits.
	TrainSamples int
	TestSamples  int
	// Epochs, BatchSize, LR, Momentum, WeightDecay are the optimizer
	// settings.
	Epochs      int
	BatchSize   int
	LR          float32
	Momentum    float32
	WeightDecay float32
	// Seed drives sampling and shuffling.
	Seed int64
}

// Defaults fills unset fields with workable values.
func (c Config) Defaults() Config {
	if c.TrainSamples == 0 {
		c.TrainSamples = 2000
	}
	if c.TestSamples == 0 {
		c.TestSamples = 500
	}
	if c.Epochs == 0 {
		c.Epochs = 3
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Data.H == 0 || c.Data.W == 0 || c.Data.Classes == 0 {
		c.Data = data.SynthCIFAR(0, c.Seed)
	}
	return c
}

// Result bundles a trained model with its data splits and accuracy.
type Result struct {
	Model    *nn.Model
	Train    *data.Dataset
	Test     *data.Dataset
	Accuracy float64
	// LossHistory records the epoch-mean training loss.
	LossHistory []float32
}

// Train builds the model and datasets and runs SGD to convergence on
// the synthetic task.
func Train(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	m, err := models.Build(cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("pretrain: %w", err)
	}
	dcfg := cfg.Data
	dcfg.Samples = cfg.TrainSamples
	train := data.Synthesize(dcfg, cfg.Seed+1000)
	dcfg.Samples = cfg.TestSamples
	test := data.Synthesize(dcfg, cfg.Seed+2000)

	opt := nn.NewSGD(m.Params(), cfg.LR, cfg.Momentum, cfg.WeightDecay)
	rng := tensor.NewRNG(cfg.Seed)
	// Victim training runs on the trainer, which reproduces the
	// monolithic gradient exactly.
	trainer := nn.NewTrainer(m, nn.DefaultTrainShards)
	var history []float32
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Simple step decay keeps late epochs stable.
		if epoch == cfg.Epochs-1 && cfg.Epochs > 1 {
			opt.SetLR(cfg.LR / 10)
		}
		shuffled := train.Shuffled(rng)
		var epochLoss float64
		batches := shuffled.Batches(cfg.BatchSize)
		for _, b := range batches {
			m.ZeroGrad()
			loss, _ := trainer.ForwardBackward(b.Images, b.Labels, 1)
			opt.Step()
			epochLoss += float64(loss)
		}
		history = append(history, float32(epochLoss/float64(len(batches))))
	}
	return &Result{
		Model:       m,
		Train:       train,
		Test:        test,
		Accuracy:    metrics.TestAccuracy(m, test),
		LossHistory: history,
	}, nil
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*Result{}
)

// TrainCached returns a shared Result for the config, training at most
// once per unique configuration. Callers must not mutate the returned
// model; clone it first (see CloneModel).
func TrainCached(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	key := fmt.Sprintf("%+v", cfg)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if r, ok := cache[key]; ok {
		return r, nil
	}
	r, err := Train(cfg)
	if err != nil {
		return nil, err
	}
	cache[key] = r
	return r, nil
}

// CloneModel builds a fresh instance of the same architecture and copies
// the trained weights and batch-norm running statistics into it.
func CloneModel(cfg models.Config, src *nn.Model) (*nn.Model, error) {
	dst, err := models.Build(cfg)
	if err != nil {
		return nil, err
	}
	if err := src.CloneWeightsTo(dst); err != nil {
		return nil, err
	}
	copyRunningStats(src.Root, dst.Root)
	return dst, nil
}

// copyRunningStats mirrors batch-norm running statistics between two
// structurally identical graphs.
func copyRunningStats(src, dst nn.Layer) {
	var srcBNs, dstBNs []*nn.BatchNorm2D
	nn.Walk(src, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			srcBNs = append(srcBNs, bn)
		}
	})
	nn.Walk(dst, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			dstBNs = append(dstBNs, bn)
		}
	})
	for i := range srcBNs {
		if i >= len(dstBNs) {
			break
		}
		copy(dstBNs[i].RunningMean, srcBNs[i].RunningMean)
		copy(dstBNs[i].RunningVar, srcBNs[i].RunningVar)
	}
}
