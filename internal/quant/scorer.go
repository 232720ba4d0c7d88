package quant

import (
	"rowhammer/internal/nn"
	"rowhammer/internal/tensor"
)

// Candidate is one prospective single-weight code change: set the weight
// at flat weight-file index Weight to Code. This is the unit both the
// CFT+BR greedy refinement and progressive bit-search attacks
// (DeepHammer / BFA style) evaluate thousands of times.
type Candidate struct {
	// Weight is the flat weight-file index.
	Weight int
	// Code is the int8 code to apply.
	Code int8
}

// Scorer evaluates candidate code changes against a pinned evaluation
// batch using layer-suffix incremental forwards on the int8 engine.
//
// The scorer pins the per-layer activations of the clean and triggered
// batches at every top-level stage boundary of the compiled plan
// (an ActivationCache). Because a single-weight change to parameter
// tensor pi perturbs exactly one stage — QModel.paramStage knows which —
// scoring a candidate in stage s recomputes only stages ≥ s, reusing
// the cached activation entering s. The quantizer's code-change
// notifications shrink the cache's valid prefix automatically, so the
// cache is always consistent with the live codes: after any SetCode /
// FlipBit / Requantize, the next Score call recomputes exactly the
// stale suffix and nothing else.
//
// Candidates score concurrently: each candidate on a lowered GEMM
// weight packs a private panel override from pooled scratch and runs
// the suffix forward without mutating the shared quantizer, so any
// tensor.MaxWorkers bound produces bit-identical losses. Candidates on
// parameters the int8 plan reads from live model floats (biases, BN
// gamma/beta, fallback-layer params) — and every candidate when the
// plan contains float fallback layers — score serially by
// mutate-and-revert. Both paths produce losses bit-identical to a full
// forward with the candidate applied.
//
// The scorer is NOT safe for concurrent use by multiple goroutines, and
// mutating codes concurrently with Score is not supported (mirroring
// QModel.Forward).
type Scorer struct {
	qm              *QModel
	clean, trig     *tensor.Tensor
	labels, targets []int
	alpha           float32

	// cleanB/trigB are the boundary activations: entry b is the
	// activation entering top-level stage b; the last entry is the final
	// output activation. Entries [0, valid) are fresh.
	cleanB, trigB []*qact
	valid         int
	baseFresh     bool
	baseLoss      float32
}

// NewScorer pins the evaluation batch (clean images, triggered images,
// their labels and the attack's target labels) and registers for the
// quantizer's code-change notifications. alpha blends the two
// cross-entropy terms exactly like the offline objective (Eq. 3):
// loss = CE(clean, labels, 1−α) + CE(triggered, targets, α).
//
// The trig tensor may be restamped in place between scoring rounds
// (e.g. when the trigger evolves); call InputsChanged afterwards.
func NewScorer(qm *QModel, clean, trig *tensor.Tensor, labels, targets []int, alpha float32) *Scorer {
	s := &Scorer{
		qm:      qm,
		clean:   clean,
		trig:    trig,
		labels:  labels,
		targets: targets,
		alpha:   alpha,
		cleanB:  make([]*qact, len(qm.ops)+1),
		trigB:   make([]*qact, len(qm.ops)+1),
	}
	qm.q.OnCodesChanged(func(pi int) { s.invalidateParam(pi) })
	return s
}

// InputsChanged invalidates every cached activation. Call after
// restamping the pinned input tensors in place.
func (s *Scorer) InputsChanged() {
	s.valid = 0
	s.baseFresh = false
}

// Release returns every cached activation to the pool. The scorer
// remains usable; the next Score rebuilds the cache.
func (s *Scorer) Release() {
	for i := range s.cleanB {
		putAct(s.cleanB[i])
		s.cleanB[i] = nil
		putAct(s.trigB[i])
		s.trigB[i] = nil
	}
	s.valid = 0
	s.baseFresh = false
}

// invalidateParam shrinks the valid boundary prefix after a code change
// to parameter pi: activations entering stages ≤ paramStage[pi] are
// still correct, everything after is stale. Boundary 0 (the transposed
// input batch) never depends on codes.
func (s *Scorer) invalidateParam(pi int) {
	s.baseFresh = false
	if s.valid == 0 {
		return
	}
	st := 0
	if pi != AllParams && pi >= 0 && pi < len(s.qm.paramStage) {
		if ps := s.qm.paramStage[pi]; ps >= 0 {
			st = ps
		}
	}
	if v := st + 1; v < s.valid {
		s.valid = v
	}
}

// refresh recomputes the stale boundary suffix and the baseline loss.
func (s *Scorer) refresh() {
	ops := s.qm.ops
	nb := len(ops) + 1
	if s.valid == 0 {
		s.Release()
		s.cleanB[0] = tensorToAct(s.clean)
		s.trigB[0] = tensorToAct(s.trig)
		s.valid = 1
	}
	for b := s.valid; b < nb; b++ {
		op := ops[b-1]
		s.cleanB[b] = s.advance(op, s.cleanB[b-1], s.cleanB[b])
		s.trigB[b] = s.advance(op, s.trigB[b-1], s.trigB[b])
	}
	s.valid = nb
	if !s.baseFresh {
		s.baseLoss = lossFromAct(s.cleanB[nb-1], s.labels, 1-s.alpha) +
			lossFromAct(s.trigB[nb-1], s.targets, s.alpha)
		s.baseFresh = true
	}
}

// advance runs one stage on a cached boundary activation, protecting
// the boundary from in-place ops, and returns the next boundary
// (releasing the stale previous buffer, if any).
func (s *Scorer) advance(op qOp, in, stale *qact) *qact {
	if stale != nil {
		putAct(stale)
	}
	src := in
	if opInPlace(op) {
		src = cloneAct(in)
	}
	out := op.forward(nil, src)
	if out != src && src != in {
		putAct(src)
	}
	return out
}

func cloneAct(a *qact) *qact {
	c := getAct(a.c, a.n, a.h, a.w)
	copy(c.data, a.data)
	return c
}

// Loss returns the blended objective at the current codes, refreshing
// the cache as needed. It is bit-identical to evaluating the full
// forwards on both pinned batches.
func (s *Scorer) Loss() float32 {
	s.refresh()
	return s.baseLoss
}

// Score evaluates every candidate's blended loss. See ScoreInto.
func (s *Scorer) Score(cands []Candidate) ([]float32, float32) {
	return s.ScoreInto(nil, cands)
}

// ScoreInto evaluates the blended objective with each candidate applied
// in isolation (all other codes at their current values), writing the
// losses into dst (grown as needed) in candidate order, and returns the
// losses together with the baseline loss of the current codes. The
// candidates themselves are never left applied. The candidate fan-out
// runs on the persistent worker pool; the caller reduces the returned
// slice in fixed candidate order, so results are independent of the
// worker count by construction.
func (s *Scorer) ScoreInto(dst []float32, cands []Candidate) ([]float32, float32) {
	s.refresh()
	base := s.baseLoss
	if cap(dst) < len(cands) {
		dst = make([]float32, len(cands))
	}
	dst = dst[:len(cands)]
	if len(cands) == 0 {
		return dst, base
	}

	// Partition: candidates on lowered GEMM weights score concurrently
	// via private panel overrides; everything else mutates and reverts
	// serially (the int8 plan reads those parameters from live model
	// floats, which cannot be shadowed per candidate).
	type job struct {
		ci, pi, stage int
		w             *qweights
	}
	var par, ser []job
	concurrent := s.qm.ConcurrentSafe()
	for ci, c := range cands {
		pi := s.qm.q.paramOf(c.Weight)
		st := 0
		if ps := s.qm.paramStage[pi]; ps >= 0 {
			st = ps
		}
		j := job{ci: ci, pi: pi, stage: st, w: s.qm.paramWeight[pi]}
		if concurrent && j.w != nil {
			par = append(par, j)
		} else {
			ser = append(ser, j)
		}
	}
	tensor.ParallelChunksIndexed(len(par), len(par), tensor.MaxWorkers(), func(idx, _, _ int) {
		j := par[idx]
		dst[j.ci] = s.scoreOverride(cands[j.ci], j.pi, j.stage, j.w)
	})
	for _, j := range ser {
		dst[j.ci] = s.scoreMutate(cands[j.ci], j.stage)
	}
	return dst, base
}

// scoreOverride evaluates a candidate on a lowered GEMM weight without
// touching shared state: clone the tensor's code segment, apply the
// candidate, pack private panels, and run the suffix with the override.
func (s *Scorer) scoreOverride(c Candidate, pi, stage int, w *qweights) float32 {
	oc := tensor.GetI8(len(w.codes))
	copy(oc, w.codes)
	oc[c.Weight-s.qm.q.offsets[pi]] = c.Code
	panels := tensor.GetI16(tensor.PackAI8Len(w.m, w.k))
	tensor.PackAI8(panels, oc, w.m, w.k)
	tensor.PutI8(oc)
	ec := &execEnv{target: w, panels: panels}
	l := s.suffixLoss(s.cleanB, stage, ec, s.labels, 1-s.alpha) +
		s.suffixLoss(s.trigB, stage, ec, s.targets, s.alpha)
	tensor.PutI16(panels)
	return l
}

// scoreMutate evaluates a candidate by applying it to the live
// quantizer, scoring the suffix, and reverting. The code-change
// notification shrinks the cache past the candidate's stage, but the
// boundary entering that stage stays valid — exactly what the suffix
// needs.
func (s *Scorer) scoreMutate(c Candidate, stage int) float32 {
	q := s.qm.q
	old := q.Code(c.Weight)
	q.SetCode(c.Weight, c.Code)
	l := s.suffixLoss(s.cleanB, stage, nil, s.labels, 1-s.alpha) +
		s.suffixLoss(s.trigB, stage, nil, s.targets, s.alpha)
	q.SetCode(c.Weight, old)
	return l
}

// suffixLoss runs stages [stage, end) from the cached boundary and
// returns the weighted cross-entropy of the resulting logits. The
// cached boundary is never mutated (in-place first ops run on a pooled
// clone) and every intermediate returns to the pool.
func (s *Scorer) suffixLoss(bs []*qact, stage int, ec *execEnv, labels []int, weight float32) float32 {
	ops := s.qm.ops
	in := bs[stage]
	cur := in
	for _, op := range ops[stage:] {
		src := cur
		if src == in && opInPlace(op) {
			src = cloneAct(in)
		}
		next := op.forward(ec, src)
		if src != in && src != next {
			putAct(src)
		}
		cur = next
	}
	l := lossFromAct(cur, labels, weight)
	if cur != in {
		putAct(cur)
	}
	return l
}

// lossFromAct computes the weighted mean cross-entropy straight from a
// channel-major output activation, gathering each sample's logit row in
// the same order actToLogits lays it out so the result is bit-identical
// to nn.CrossEntropyLoss over QModel.Forward's logits tensor.
func lossFromAct(a *qact, labels []int, weight float32) float32 {
	n := a.n
	k := a.c * a.h * a.w
	hw := a.h * a.w
	row := tensor.GetF32(k)
	var total float64
	for i := 0; i < n; i++ {
		for c := 0; c < a.c; c++ {
			base := (c*n + i) * hw
			copy(row[c*hw:(c+1)*hw], a.data[base:base+hw])
		}
		total += nn.RowNLL(row, labels[i])
	}
	tensor.PutF32(row)
	return weight * float32(total) / float32(n)
}
