package core

import (
	"fmt"
	"sort"

	"rowhammer/internal/data"
	"rowhammer/internal/dram"
	"rowhammer/internal/nn"
	"rowhammer/internal/quant"
	"rowhammer/internal/tensor"
)

// Config parameterizes the offline phase (Algorithm 1).
type Config struct {
	// NFlip is the number of bit flips allowed (one per group of
	// memory pages); it must not exceed the weight file's page count.
	NFlip int
	// TargetClass is the backdoor's target label ỹ.
	TargetClass int
	// Alpha blends the clean-data loss (1−α) with the triggered-data
	// loss (α); the paper uses 0.5.
	Alpha float32
	// Epsilon is the FGSM trigger step (the paper uses 0.001).
	Epsilon float32
	// Eta is the masked weight-update step in units of quantization
	// steps (sign-SGD on the selected weights; see the note on
	// RunOffline).
	Eta float32
	// Iterations is T, the total optimization iterations.
	Iterations int
	// BitReduceEvery applies Bit Reduction every k iterations (the
	// paper uses 100). The final iteration always applies the
	// constraint cleanup.
	BitReduceEvery int
	// BitReduce enables step 4 of Algorithm 1. With it disabled the
	// attack is the CFT ablation: one weight per page, but a weight
	// change may span multiple bits.
	BitReduce bool
	// TriggerSize is the square trigger mask edge (10 on CIFAR-scale
	// inputs in the paper).
	TriggerSize int
	// GreedyRefine evaluates a few candidate single-bit flips per group
	// at each enforcement step and keeps the one that minimizes the
	// blended objective (including "no flip"). This is the discrete
	// analogue of the paper's post-Bit-Reduction loss recovery
	// (Figure 7) and markedly improves the TA/ASR trade-off at the
	// small model scales of this reproduction.
	GreedyRefine bool
	// RefineCandidates bounds how many drifted weights per group the
	// greedy refinement evaluates.
	RefineCandidates int
	// RefineBatch is the number of attack-set images the refinement's
	// loss evaluations use (smaller = faster).
	RefineBatch int
	// ForbiddenBitMask excludes bit positions from Bit Reduction: set
	// bits are never flipped. The RADAR-adaptive attacker sets the MSB
	// (0x80) to dodge the defense's most-significant-bit checksums.
	ForbiddenBitMask byte
	// WrapLoss, when non-nil, wraps every greedy-refinement loss
	// evaluation; a defense-aware attacker uses it to apply a recovery
	// transformation (e.g. weight reconstruction) before measuring, so
	// the kept flips survive the defense. WrapLoss implies fp32
	// evaluation, since recovery transformations mutate model floats
	// directly, bypassing the quantizer's codes the int8 engine executes.
	// Without it candidate flips score on the native int8 engine — the
	// representation the deployed victim actually runs — through a
	// quant.Scorer that caches per-layer activations and recomputes only
	// the layers at and after the flip, bit-identical to full forwards.
	WrapLoss func(eval func() float32) float32
	// float32Eval and fullForwardRefine are test seams pinning the
	// reference paths: fp32 refinement evaluation, and full int8
	// forwards instead of the suffix scorer.
	float32Eval       bool
	fullForwardRefine bool
}

// DefaultConfig returns the paper's settings for a CIFAR-scale model.
func DefaultConfig(nflip, target int) Config {
	return Config{
		NFlip:            nflip,
		TargetClass:      target,
		Alpha:            0.5,
		Epsilon:          0.001,
		Eta:              1,
		Iterations:       300,
		BitReduceEvery:   100,
		BitReduce:        true,
		TriggerSize:      10,
		GreedyRefine:     true,
		RefineCandidates: 3,
		RefineBatch:      16,
	}
}

// Result is the offline-phase output: the backdoored weight file and
// the trigger. The Table II baselines (internal/baselines) return it
// too, without a LossHistory.
type Result struct {
	// Quantizer is bound to the attacked model; its codes hold the
	// backdoored weights.
	Quantizer *quant.Quantizer
	// OrigCodes is the clean weight file.
	OrigCodes []int8
	// BackdooredCodes is the attacked weight file.
	BackdooredCodes []int8
	// Trigger is the input pattern Δx: learned by CFT+BR and TBT, a
	// fixed white square for BadNet and FT.
	Trigger *data.Trigger
	// NFlip is the realized Hamming distance between the two code
	// vectors.
	NFlip int
	// LossHistory records the blended objective per iteration
	// (Figure 7: spikes right after each Bit Reduction).
	LossHistory []float32
}

func dirOf(zeroToOne bool) dram.FlipDirection {
	if zeroToOne {
		return dram.ZeroToOne
	}
	return dram.OneToZero
}

// groupGeometry is the single source of the page-aligned group
// partition of Eq. 5: it validates NFlip against the page count of nw
// weights and returns the group span in weights. Both the per-iteration
// selection (GroupSortSelect) and the constraint enforcement
// (groupBounds) derive their geometry here, and RunOffline validates
// NFlip up front through it without allocating anything.
func groupGeometry(nw, nflip int) (groupSize int, err error) {
	pages := (nw + quant.PageSize - 1) / quant.PageSize
	if nflip < 1 {
		return 0, fmt.Errorf("core: NFlip must be positive, got %d", nflip)
	}
	if nflip > pages {
		return 0, fmt.Errorf("core: NFlip=%d exceeds the %d pages the weights occupy", nflip, pages)
	}
	pagesPerGroup := (pages + nflip - 1) / nflip
	return pagesPerGroup * quant.PageSize, nil
}

// GroupSortSelect implements Eq. 5: the flat weight vector is divided
// into at most NFlip page-aligned groups of equal size, and the index
// with the largest gradient magnitude is selected per group. Page
// alignment of the group boundaries guarantees two selections never
// share a 4 KB page (constraint C2).
func GroupSortSelect(absGrad []float32, nflip int) ([]int, error) {
	nw := len(absGrad)
	groupSize, err := groupGeometry(nw, nflip)
	if err != nil {
		return nil, err
	}
	sel := make([]int, 0, nflip)
	for lo := 0; lo < nw; lo += groupSize {
		hi := lo + groupSize
		if hi > nw {
			hi = nw
		}
		best := lo
		for i := lo + 1; i < hi; i++ {
			if absGrad[i] > absGrad[best] {
				best = i
			}
		}
		sel = append(sel, best)
	}
	return sel, nil
}

// RunOffline executes Algorithm 1 against the model, which must already
// be trained; its weights are quantized in place. attackSet is the
// small unseen test subset the attacker holds (the paper uses 128
// CIFAR images).
//
// Implementation note: step 3's masked update uses sign-SGD scaled by
// each tensor's quantization step (η quantization steps per iteration)
// rather than raw gradient descent; this keeps the update magnitude
// meaningful across layers with very different gradient scales in a
// from-scratch training stack, and is equivalent up to the adaptive
// step size.
func RunOffline(model *nn.Model, attackSet *data.Dataset, cfg Config) (*Result, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("core: iterations must be positive")
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("core: alpha must be in [0,1], got %v", cfg.Alpha)
	}
	if cfg.TargetClass < 0 || cfg.TargetClass >= model.Classes {
		return nil, fmt.Errorf("core: target class %d out of range", cfg.TargetClass)
	}
	if edge := min(model.InputShape[1], model.InputShape[2]); cfg.TriggerSize < 1 || cfg.TriggerSize > edge {
		return nil, fmt.Errorf("core: trigger size %d outside [1, %d]", cfg.TriggerSize, edge)
	}
	if cfg.BitReduceEvery <= 0 {
		cfg.BitReduceEvery = 100
	}

	nn.FreezeBatchNorm(model.Root)
	q := quant.NewQuantizer(model)
	orig := q.Codes()

	// Validates NFlip against the page count and fixes the enforcement
	// group partition for the whole run (the geometry is a pure function
	// of the weight count).
	groups, err := groupBounds(q.NumWeights(), cfg.NFlip)
	if err != nil {
		return nil, err
	}

	// The greedy refinement's loss evaluations run on the int8 engine
	// unless a test pins fp32 or the caller installed a WrapLoss recovery
	// hook (which mutates floats behind the quantizer's back).
	var qm *quant.QModel
	if !cfg.float32Eval && cfg.WrapLoss == nil {
		qm = quant.NewQModel(q)
	}

	c, h, w := model.InputShape[0], model.InputShape[1], model.InputShape[2]
	trigger := data.NewSquareTrigger(c, h, w, cfg.TriggerSize)

	params := model.Params()
	offs := paramOffsets(params)
	absGrad := make([]float32, q.NumWeights())

	// One attack batch, reused every iteration (as in the paper's
	// Figure 7 setup).
	batch := attackSet.Batches(attackSet.Len())[0]
	targetLabels := make([]int, len(batch.Labels))
	for i := range targetLabels {
		targetLabels[i] = cfg.TargetClass
	}

	// The greedy refinement evaluates losses on a small fixed subset.
	rb := cfg.RefineBatch
	if rb <= 0 {
		rb = 16
	}
	if rb > attackSet.Len() {
		rb = attackSet.Len()
	}
	refineSet := attackSet.Head(rb)
	refineImgs := refineSet.Batches(rb)[0]
	refineBatch := &tensorBatch{
		clean:  refineImgs.Images,
		trig:   refineImgs.Images.Clone(),
		labels: refineImgs.Labels,
	}
	refineTargets := make([]int, rb)
	for i := range refineTargets {
		refineTargets[i] = cfg.TargetClass
	}

	// The incremental suffix scorer drives the greedy refinement on the
	// int8 engine: it pins the refinement batch's per-layer activations
	// and rescans only the layers at and after each candidate flip —
	// bit-identical to full forwards at any worker count.
	var scorer *quant.Scorer
	if qm != nil && !cfg.fullForwardRefine {
		scorer = quant.NewScorer(qm, refineBatch.clean, refineBatch.trig,
			refineBatch.labels, refineTargets, cfg.Alpha)
	}

	result := &Result{Quantizer: q, OrigCodes: orig, Trigger: trigger}

	// The gradient hot path runs on the trainer: gradients fold into the
	// master, and the trainer resyncs its replicas' weights each step
	// (the masked sign-SGD update and Bit Reduction mutate them between
	// steps).
	trainer := nn.NewTrainer(model, nn.DefaultTrainShards)
	// Persistent triggered-image buffer, re-stamped per iteration.
	trigImages := batch.Images.Clone()

	for t := 0; t < cfg.Iterations; t++ {
		model.ZeroGrad()

		// The clean-data term (1−α)·ℓ(f(x, θ+Δθ), y) and the triggered
		// term α·ℓ(f(x+Δx, θ+Δθ), ỹ) are independent, so they run as one
		// trainer pair: both passes at once, gradients folded clean term
		// first — bit-identical to two sequential calls. The clean term's
		// input gradient is not needed.
		copy(trigImages.Data(), batch.Images.Data())
		trigger.Apply(trigImages)
		cleanLoss, trigLoss, _, inGrad := trainer.ForwardBackwardPair(
			batch.Images, batch.Labels, 1-cfg.Alpha,
			trigImages, targetLabels, cfg.Alpha)

		result.LossHistory = append(result.LossHistory, cleanLoss+trigLoss)

		// Step 1: FGSM trigger update (Eq. 4), descending the triggered
		// loss so the trigger activates the target class.
		tg := trigger.MaskedGradSum(inGrad)
		trigger.UpdateFGSM(tg, -cfg.Epsilon)

		// Step 2: locate vulnerable weights (Eq. 5).
		flatAbsGrad(params, absGrad)
		selected, err := GroupSortSelect(absGrad, cfg.NFlip)
		if err != nil {
			return nil, err
		}

		// Step 3: masked adversarial fine-tuning (Eq. 6) with sign-SGD
		// in quantization-step units.
		pi := 0
		for _, idx := range selected {
			for pi < len(offs)-1 && offs[pi+1] <= idx {
				pi++
			}
			// Reset pi if selections are not sorted (they are, but be safe).
			if offs[pi] > idx {
				pi = 0
				for pi < len(offs)-1 && offs[pi+1] <= idx {
					pi++
				}
			}
			p := params[pi]
			inner := idx - offs[pi]
			g := p.G.Data()[inner]
			if g == 0 {
				continue
			}
			step := cfg.Eta * q.Scale(pi)
			if g > 0 {
				p.W.Data()[inner] -= step
			} else {
				p.W.Data()[inner] += step
			}
		}

		// Step 4: periodic constraint enforcement + Bit Reduction.
		if (t+1)%cfg.BitReduceEvery == 0 || t == cfg.Iterations-1 {
			// The trigger is frozen within one enforcement step, so the
			// triggered refinement batch is stamped once here instead of
			// once per loss evaluation.
			refineBatch.stamp(trigger)
			if scorer != nil {
				scorer.InputsChanged()
			}
			fwd := func(x *tensor.Tensor) *tensor.Tensor {
				if qm != nil {
					return qm.Forward(x)
				}
				return model.Forward(x, false)
			}
			rawLoss := func() float32 {
				return blendedLoss(fwd, refineBatch, refineTargets, cfg.Alpha)
			}
			lossFn := rawLoss
			if cfg.WrapLoss != nil {
				lossFn = func() float32 { return cfg.WrapLoss(rawLoss) }
			}
			enforceConstraints(q, orig, groups, cfg, lossFn, scorer)
		}
	}

	result.BackdooredCodes = q.Codes()
	result.NFlip = quant.HammingDistance(orig, result.BackdooredCodes)
	return result, nil
}

// blendedLoss evaluates the Eq. 3 objective (forward passes only) for
// the greedy refinement. fwd abstracts the inference engine so the same
// scoring runs on the fp32 graph or the int8 engine. The triggered batch
// must already be stamped (tensorBatch.stamp) for the current trigger.
func blendedLoss(fwd func(*tensor.Tensor) *tensor.Tensor, images *tensorBatch, target []int, alpha float32) float32 {
	cleanOut := fwd(images.clean)
	cleanLoss := nn.CrossEntropyLoss(cleanOut, images.labels, 1-alpha)
	trigOut := fwd(images.trig)
	trigLoss := nn.CrossEntropyLoss(trigOut, target, alpha)
	return cleanLoss + trigLoss
}

// tensorBatch caches the refinement evaluation batch. The triggered copy
// is stamped once per enforcement step — the trigger is frozen inside a
// step, so restamping per loss evaluation would be pure waste.
type tensorBatch struct {
	clean  *tensor.Tensor
	trig   *tensor.Tensor
	labels []int
}

func (b *tensorBatch) stamp(trigger *data.Trigger) {
	copy(b.trig.Data(), b.clean.Data())
	trigger.Apply(b.trig)
}

// groupBounds returns the page-aligned [lo, hi) ranges of the NFlip
// groups over nw weights (same partition as GroupSortSelect).
func groupBounds(nw, nflip int) ([][2]int, error) {
	groupSize, err := groupGeometry(nw, nflip)
	if err != nil {
		return nil, err
	}
	out := make([][2]int, 0, (nw+groupSize-1)/groupSize)
	for lo := 0; lo < nw; lo += groupSize {
		hi := lo + groupSize
		if hi > nw {
			hi = nw
		}
		out = append(out, [2]int{lo, hi})
	}
	return out, nil
}

// enforceConstraints snaps weights to the quantization grid and reduces
// each group to at most one modified weight with at most one flipped
// bit. With GreedyRefine enabled it then coordinate-descends over the
// groups, evaluating each group's top drifted candidates (and "no
// flip") under the blended objective and keeping the best — the
// discrete recovery that makes the Figure 7 loss spikes settle.
//
// When a scorer is supplied the descent runs on it: each group's
// candidates fan out concurrently over suffix forwards, and the losses
// reduce by argmin in the fixed order [current, no-flip, rest] with
// strict-< replacement — exactly the sequence the lossFn loop evaluates
// — so the kept flips are byte-identical at any worker count. With
// scorer == nil (fp32 evaluation, WrapLoss recovery hooks, or the
// fullForwardRefine reference path) every option is scored by lossFn
// full forwards instead.
func enforceConstraints(q *quant.Quantizer, orig []int8, groups [][2]int, cfg Config, lossFn func() float32, scorer *quant.Scorer) {
	q.Requantize()

	reduce := func(i int, drifted int8) int8 {
		if cfg.BitReduce {
			if cfg.ForbiddenBitMask != 0 {
				return quant.BitReduceMasked(orig[i], drifted, cfg.ForbiddenBitMask)
			}
			return quant.BitReduce(orig[i], drifted)
		}
		return drifted
	}

	type candidate struct {
		idx   int
		code  int8 // reduced code to apply
		delta int
	}
	groupCands := make([][]candidate, len(groups))
	for gi, g := range groups {
		var cands []candidate
		for i := g[0]; i < g[1]; i++ {
			if c := q.Code(i); c != orig[i] {
				d := int(c) - int(orig[i])
				if d < 0 {
					d = -d
				}
				cands = append(cands, candidate{idx: i, code: reduce(i, c), delta: d})
			}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].delta > cands[b].delta })
		limit := cfg.RefineCandidates
		if limit < 1 {
			limit = 1
		}
		if len(cands) > limit {
			cands = cands[:limit]
		}
		groupCands[gi] = cands

		// Default: restore everything, apply the strongest candidate.
		for i := g[0]; i < g[1]; i++ {
			if q.Code(i) != orig[i] {
				q.SetCode(i, orig[i])
			}
		}
		if len(cands) > 0 {
			q.SetCode(cands[0].idx, cands[0].code)
		}
	}

	if !cfg.GreedyRefine {
		return
	}
	// Coordinate descent: per group, pick the candidate (or no flip)
	// minimizing the blended objective with all other groups fixed.
	var (
		scs    []quant.Candidate
		losses []float32
	)
	for gi := range groups {
		cands := groupCands[gi]
		if len(cands) == 0 {
			continue
		}
		current := cands[0] // applied above

		if scorer != nil {
			// Revert to the no-flip state so the scorer's baseline IS the
			// no-flip loss, then fan the candidates out over suffix
			// forwards. Reduction order replicates the sequential loop:
			// cands[0] seeds best, no-flip and cands[1:] replace on
			// strict <.
			q.SetCode(current.idx, orig[current.idx])
			scs = scs[:0]
			for _, c := range cands {
				scs = append(scs, quant.Candidate{Weight: c.idx, Code: c.code})
			}
			var noflip float32
			losses, noflip = scorer.ScoreInto(losses, scs)
			bestLoss := losses[0]
			bestIdx, bestCode := current.idx, current.code
			if noflip < bestLoss {
				bestLoss = noflip
				bestIdx, bestCode = -1, 0
			}
			for j, c := range cands[1:] {
				if l := losses[j+1]; l < bestLoss {
					bestLoss = l
					bestIdx, bestCode = c.idx, c.code
				}
			}
			if bestIdx >= 0 {
				q.SetCode(bestIdx, bestCode)
			}
			continue
		}

		bestLoss := lossFn()
		bestIdx, bestCode := current.idx, current.code

		// "No flip" option.
		q.SetCode(current.idx, orig[current.idx])
		if l := lossFn(); l < bestLoss {
			bestLoss = l
			bestIdx, bestCode = -1, 0
		}
		for _, c := range cands[1:] {
			q.SetCode(c.idx, c.code)
			if l := lossFn(); l < bestLoss {
				bestLoss = l
				bestIdx, bestCode = c.idx, c.code
			}
			q.SetCode(c.idx, orig[c.idx])
		}
		if bestIdx >= 0 {
			q.SetCode(bestIdx, bestCode)
		}
	}
}
