// Package baselines implements the backdoor-injection methods the paper
// compares CFT+BR against (Table II): BadNet (unconstrained fine-tuning
// of every weight), FT (last-layer fine-tuning) and TBT (Targeted Bit
// Trojan: trigger generation plus fine-tuning of a few last-layer
// weights). None of them respects the Rowhammer placement constraints,
// which is exactly why their DRAM match rates collapse online. Each one
// returns a core.Result, the CFT+BR result type, with no LossHistory,
// so the online pipeline consumes any method's output the same way.
package baselines

import (
	"fmt"

	"rowhammer/internal/core"
	"rowhammer/internal/data"
	"rowhammer/internal/nn"
	"rowhammer/internal/quant"
)

// Config holds the shared baseline settings.
type Config struct {
	// TargetClass is the backdoor target label.
	TargetClass int
	// Alpha blends clean loss (1−α) and triggered loss (α).
	Alpha float32
	// Iterations is the number of fine-tuning steps on the attack
	// batch.
	Iterations int
	// LR is the SGD learning rate.
	LR float32
	// TriggerSize is the square trigger edge length.
	TriggerSize int
}

// DefaultConfig returns workable baseline settings.
func DefaultConfig(target int) Config {
	return Config{
		TargetClass: target,
		Alpha:       0.5,
		Iterations:  60,
		LR:          0.01,
		TriggerSize: 10,
	}
}

func (c Config) validate(model *nn.Model) error {
	if c.TargetClass < 0 || c.TargetClass >= model.Classes {
		return fmt.Errorf("baselines: target class %d out of range", c.TargetClass)
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("baselines: iterations must be positive")
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("baselines: alpha must be in [0,1]")
	}
	return nil
}

// fixedTrigger builds the static white-square trigger the unoptimized
// baselines stamp on inputs.
func fixedTrigger(model *nn.Model, size int) *data.Trigger {
	tr := data.NewSquareTrigger(model.InputShape[0], model.InputShape[1], model.InputShape[2], size)
	tr.Pattern.Fill(1)
	return tr
}

// fineTune runs the blended-objective fine-tuning over the given
// parameter subset and returns the resulting weight-file difference.
func fineTune(model *nn.Model, attackSet *data.Dataset, params []*nn.Param, trigger *data.Trigger, cfg Config) (*core.Result, error) {
	if err := cfg.validate(model); err != nil {
		return nil, err
	}
	nn.FreezeBatchNorm(model.Root)
	q := quant.NewQuantizer(model)
	orig := q.Codes()

	batch := attackSet.Batches(attackSet.Len())[0]
	targets := make([]int, len(batch.Labels))
	for i := range targets {
		targets[i] = cfg.TargetClass
	}
	opt := nn.NewSGD(params, cfg.LR, 0.9, 0)

	// Gradient passes run on the data-parallel trainer, the clean and
	// triggered terms as one concurrent pair; the optimizer only steps
	// the caller's parameter subset, and the trainer resyncs replica
	// weights from the master each iteration.
	trainer := nn.NewTrainer(model, nn.DefaultTrainShards)
	trigImages := batch.Images.Clone()
	for t := 0; t < cfg.Iterations; t++ {
		model.ZeroGrad()
		copy(trigImages.Data(), batch.Images.Data())
		trigger.Apply(trigImages)
		trainer.ForwardBackwardPair(batch.Images, batch.Labels, 1-cfg.Alpha, trigImages, targets, cfg.Alpha)

		opt.Step()
	}
	return result(q, orig, trigger), nil
}

// result requantizes the tuned model and packages the weight-file
// difference.
func result(q *quant.Quantizer, orig []int8, trigger *data.Trigger) *core.Result {
	q.Requantize()
	codes := q.Codes()
	return &core.Result{
		Quantizer:       q,
		OrigCodes:       orig,
		BackdooredCodes: codes,
		Trigger:         trigger,
		NFlip:           quant.HammingDistance(orig, codes),
	}
}

// BadNet fine-tunes every parameter on the blended objective with a
// fixed trigger — the supply-chain attack of Gu et al., evaluated here
// as a post-deployment bit-flip candidate.
func BadNet(model *nn.Model, attackSet *data.Dataset, cfg Config) (*core.Result, error) {
	trigger := fixedTrigger(model, cfg.TriggerSize)
	return fineTune(model, attackSet, model.Params(), trigger, cfg)
}

// lastLinear returns the network's final fully connected layer.
func lastLinear(model *nn.Model) (*nn.Linear, error) {
	var last *nn.Linear
	nn.Walk(model.Root, func(l nn.Layer) {
		if fc, ok := l.(*nn.Linear); ok {
			last = fc
		}
	})
	if last == nil {
		return nil, fmt.Errorf("baselines: model has no linear layer")
	}
	return last, nil
}

// FT fine-tunes only the last layer (the paper's FT baseline).
func FT(model *nn.Model, attackSet *data.Dataset, cfg Config) (*core.Result, error) {
	fc, err := lastLinear(model)
	if err != nil {
		return nil, err
	}
	trigger := fixedTrigger(model, cfg.TriggerSize)
	return fineTune(model, attackSet, fc.Params(), trigger, cfg)
}
