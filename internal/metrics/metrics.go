// Package metrics implements the paper's evaluation metrics (§V-B):
// N_flip, DRAM match rate r_match, test accuracy (TA) and attack
// success rate (ASR), plus confusion matrices for the Figure 1 style
// behavioral comparison.
package metrics

import (
	"rowhammer/internal/data"
	"rowhammer/internal/memsys"
	"rowhammer/internal/quant"
	"rowhammer/internal/tensor"
)

// evalBatch is the batch size used for metric evaluation.
const evalBatch = 64

// The S of r_match is bits per OS page: the quantizer's file layout and
// the memory system must agree on the page size, or the δ/S penalty is
// computed against the wrong denominator. These zero-length arrays fail
// to compile the moment the two constants diverge.
var (
	_ [quant.PageSize - memsys.PageSize]struct{}
	_ [memsys.PageSize - quant.PageSize]struct{}
)

// Predictor is any model that classifies batches: the fp32 *nn.Model
// and the int8 *quant.QModel both satisfy it, so every metric runs
// unchanged on either engine.
type Predictor interface {
	Predict(x *tensor.Tensor) []int
}

// ConcurrentPredictor is optionally implemented by predictors that can
// run Predict from several goroutines at once. Metric evaluation fans
// batches out across the worker pool only when the predictor reports it
// is safe; everything else — including *nn.Model, whose layers cache
// per-call state — evaluates sequentially.
type ConcurrentPredictor interface {
	Predictor
	ConcurrentSafe() bool
}

// Evaluator binds a predictor to its evaluation fan-out policy. The
// ConcurrentSafe probe runs once, at construction — not once per metric
// call — so hot loops that evaluate after every candidate flip (the
// offline refinement, the defense sweeps, the serving harness) pay the
// interface type-assertion exactly once per engine. Construct with
// NewEvaluator and reuse across TestAccuracy/AttackSuccessRate calls
// on the same engine.
type Evaluator struct {
	m Predictor
	// concurrent caches the engine's ConcurrentSafe answer. The worker
	// count itself is still resolved per call (tests and benches resize
	// the pool with SetMaxWorkers); only the safety decision is hoisted.
	concurrent bool
}

// NewEvaluator probes the predictor's concurrency contract once and
// returns the bound evaluator.
func NewEvaluator(m Predictor) *Evaluator {
	e := &Evaluator{m: m}
	if cp, ok := m.(ConcurrentPredictor); ok && cp.ConcurrentSafe() {
		e.concurrent = true
	}
	return e
}

// Workers returns the fan-out width the evaluator will use right now:
// the worker-pool size for concurrency-safe engines, 1 otherwise.
func (e *Evaluator) Workers() int {
	if e.concurrent {
		return tensor.MaxWorkers()
	}
	return 1
}

// evalBatches runs fn once per evaluation batch. When the predictor
// declared itself concurrency-safe at construction the batches are
// spread across the persistent worker pool; each invocation owns its
// batch (Batches copies the pixels), so fn may mutate the batch images
// freely but must write only batch-indexed (disjoint) accumulator
// slots. Results are identical at any worker count by construction.
func (e *Evaluator) evalBatches(batches []data.Batch, fn func(bi int, b data.Batch)) {
	tensor.ParallelChunks(len(batches), e.Workers(), func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			fn(bi, batches[bi])
		}
	})
}

// TestAccuracy returns the fraction of clean samples the model
// classifies correctly (the TA metric).
func (e *Evaluator) TestAccuracy(ds *data.Dataset) float64 {
	batches := ds.Batches(evalBatch)
	correct := make([]int, len(batches))
	total := 0
	e.evalBatches(batches, func(bi int, b data.Batch) {
		preds := e.m.Predict(b.Images)
		for i, p := range preds {
			if p == b.Labels[i] {
				correct[bi]++
			}
		}
	})
	sum := 0
	for bi, b := range batches {
		sum += correct[bi]
		total += len(b.Labels)
	}
	if total == 0 {
		return 0
	}
	return float64(sum) / float64(total)
}

// AttackSuccessRate returns the fraction of trigger-stamped samples
// classified as the target class (the ASR metric). Samples whose true
// label already equals the target class are excluded, as is standard.
func (e *Evaluator) AttackSuccessRate(ds *data.Dataset, trigger *data.Trigger, target int) float64 {
	batches := ds.Batches(evalBatch)
	hits := make([]int, len(batches))
	counted := make([]int, len(batches))
	e.evalBatches(batches, func(bi int, b data.Batch) {
		trigger.Apply(b.Images)
		preds := e.m.Predict(b.Images)
		for i, p := range preds {
			if b.Labels[i] == target {
				continue
			}
			if p == target {
				hits[bi]++
			}
			counted[bi]++
		}
	})
	sumHits, sumTotal := 0, 0
	for bi := range batches {
		sumHits += hits[bi]
		sumTotal += counted[bi]
	}
	if sumTotal == 0 {
		return 0
	}
	return float64(sumHits) / float64(sumTotal)
}

// TestAccuracy is the one-shot form: construct an evaluator and
// measure. Hot loops should hold an Evaluator instead.
func TestAccuracy(m Predictor, ds *data.Dataset) float64 {
	return NewEvaluator(m).TestAccuracy(ds)
}

// AttackSuccessRate is the one-shot form of Evaluator.AttackSuccessRate.
func AttackSuccessRate(m Predictor, ds *data.Dataset, trigger *data.Trigger, target int) float64 {
	return NewEvaluator(m).AttackSuccessRate(ds, trigger, target)
}

// NFlip is the paper's bit-flip count: the Hamming distance between the
// original and modified weight-file codes.
func NFlip(orig, modified []int8) int {
	return quant.HammingDistance(orig, modified)
}

// RMatch computes the DRAM match rate (§V-B):
//
//	r_match = n_match/N_flip × (1 − δ/S) × 100
//
// where nMatch is the number of required flips that map onto vulnerable
// cells, nFlip the total required flips, deltaPerPage the average number
// of accidental flips per target page, and S the bits per page.
func RMatch(nMatch, nFlip int, deltaPerPage float64) float64 {
	if nFlip == 0 {
		return 0
	}
	s := float64(quant.PageSize * 8)
	r := float64(nMatch) / float64(nFlip) * (1 - deltaPerPage/s) * 100
	if r < 0 {
		r = 0
	}
	return r
}
