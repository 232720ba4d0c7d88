package baselines

import (
	"fmt"
	"sort"

	"rowhammer/internal/core"
	"rowhammer/internal/data"
	"rowhammer/internal/nn"
	"rowhammer/internal/quant"
)

// TBTConfig parameterizes the Targeted Bit Trojan baseline.
type TBTConfig struct {
	Config
	// WB is the number of last-layer weights the attack modifies (the
	// "wb" parameter of Rakin et al.).
	WB int
	// Epsilon is the FGSM step size for trigger generation.
	Epsilon float32
}

// tbtTriggerIters is the number of FGSM steps of trigger generation.
const tbtTriggerIters = 30

// DefaultTBTConfig returns workable TBT settings.
func DefaultTBTConfig(target int) TBTConfig {
	return TBTConfig{
		Config:  DefaultConfig(target),
		WB:      20,
		Epsilon: 0.02,
	}
}

// TBT implements the Targeted Bit Trojan baseline: (1) select the WB
// most significant last-layer weights feeding the target class, (2)
// generate a trigger that drives the target logit via FGSM, (3)
// fine-tune only the selected weights on the blended objective. All
// modified weights live in the final layer — a single memory page on
// CIFAR-scale models — which is what ruins its DRAM match rate.
func TBT(model *nn.Model, attackSet *data.Dataset, cfg TBTConfig) (*core.Result, error) {
	if err := cfg.Config.validate(model); err != nil {
		return nil, err
	}
	if cfg.WB <= 0 {
		return nil, fmt.Errorf("baselines: TBT WB must be positive")
	}
	fc, err := lastLinear(model)
	if err != nil {
		return nil, err
	}
	nn.FreezeBatchNorm(model.Root)
	q := quant.NewQuantizer(model)
	orig := q.Codes()

	// Step 1: significant-neuron identification — the WB input features
	// with the largest |weight| into the target class row.
	features := fc.Weight.W.Dim(1)
	wb := cfg.WB
	if wb > features {
		wb = features
	}
	type scored struct {
		idx int
		mag float32
	}
	row := make([]scored, features)
	for j := 0; j < features; j++ {
		v := fc.Weight.W.At(cfg.TargetClass, j)
		if v < 0 {
			v = -v
		}
		row[j] = scored{idx: j, mag: v}
	}
	sort.Slice(row, func(a, b int) bool { return row[a].mag > row[b].mag })
	selected := make(map[int]bool, wb)
	for _, s := range row[:wb] {
		selected[s.idx] = true
	}

	// Step 2: trigger generation by FGSM on the target logit.
	trigger := data.NewSquareTrigger(model.InputShape[0], model.InputShape[1], model.InputShape[2], cfg.TriggerSize)
	batch := attackSet.Batches(attackSet.Len())[0]
	targets := make([]int, len(batch.Labels))
	for i := range targets {
		targets[i] = cfg.TargetClass
	}
	trainer := nn.NewTrainer(model, nn.DefaultTrainShards)
	trigImages := batch.Images.Clone()
	for t := 0; t < tbtTriggerIters; t++ {
		model.ZeroGrad()
		copy(trigImages.Data(), batch.Images.Data())
		trigger.Apply(trigImages)
		_, inGrad := trainer.ForwardBackward(trigImages, targets, 1)
		tg := trigger.MaskedGradSum(inGrad)
		trigger.UpdateFGSM(tg, -cfg.Epsilon)
	}

	// Step 3: fine-tune only W[target, selected].
	for t := 0; t < cfg.Iterations; t++ {
		model.ZeroGrad()
		copy(trigImages.Data(), batch.Images.Data())
		trigger.Apply(trigImages)
		trainer.ForwardBackwardPair(batch.Images, batch.Labels, 1-cfg.Alpha, trigImages, targets, cfg.Alpha)

		// Masked SGD on the selected row entries only.
		w := fc.Weight.W.Data()
		g := fc.Weight.G.Data()
		base := cfg.TargetClass * features
		for j := 0; j < features; j++ {
			if selected[j] {
				w[base+j] -= cfg.LR * g[base+j]
			}
		}
	}

	return result(q, orig, trigger), nil
}
