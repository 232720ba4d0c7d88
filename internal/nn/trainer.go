package nn

import (
	"runtime"

	"rowhammer/internal/tensor"
)

// DefaultTrainShards is the fixed shard count of a Trainer when the
// caller does not choose one. The shard count — not the worker count —
// determines the floating-point summation geometry, so it deliberately
// defaults to a constant rather than NumCPU: the same computation run
// on any machine, at any worker count, produces bit-identical
// gradients. The default is a single shard, which reproduces the
// monolithic single-graph gradient exactly; callers opt into sharded
// summation geometry (and with it multi-core scaling) explicitly.
const DefaultTrainShards = 1

// Trainer is the data-parallel training engine. It shards each batch
// across structural replicas of a master model, runs forward+backward
// per shard on the persistent worker pool, and tree-reduces the
// per-replica gradients into the master's accumulators in fixed order.
//
// Determinism contract: for a fixed batch and fixed shard count, the
// accumulated master gradients, the returned loss, and the returned
// input gradient are bit-identical at any worker count (including 1).
// Shard geometry is a pure function of the batch size; each shard's
// arithmetic happens on a dedicated replica; every cross-shard
// combination (gradient tree reduction, loss summation, batch-norm
// statistic averaging) walks the shard index in fixed order.
//
// Term-order contract: a step is a compute phase (forward+backward on
// the replicas) followed by a reduce phase (folding the replicas'
// gradients into the master). ForwardBackwardPair computes two loss
// terms concurrently on two independent replica sets, then reduces term
// 0 before term 1 — master G = (G + g₀) + g₁, exactly the order two
// sequential ForwardBackward calls produce. A pair is therefore
// bit-identical to the two calls it replaces, at any worker count.
//
// The master never runs a forward pass through the trainer — it is the
// single source of truth for weights and the accumulation target for
// gradients, so callers keep mutating master weights directly (masked
// sign-SGD updates, bit flips, optimizer steps) and the trainer resyncs
// the replicas at the start of every step.
type Trainer struct {
	Master *Model

	shards  int
	workers int

	masterParams []*Param
	masterBNs    []*BatchNorm2D
	// terms[0] serves ForwardBackward and a pair's first term; terms[1]
	// serves a pair's second term and stays empty until the first pair.
	terms [2]replicaSet

	slots [][]float32
}

// replicaSet is one loss term's working set: its shard replicas, its
// input-gradient buffer, and the geometry of its last compute phase.
type replicaSet struct {
	replicas []*replica
	inGrad   *tensor.Tensor
	n, sEff  int
	weight   float32
}

// NewTrainer builds a trainer with the given shard count (values < 1
// select DefaultTrainShards). Replicas are constructed lazily on first
// use, so a Trainer over a model that is still being mutated costs
// nothing until the first step. The initial worker budget is the
// tensor kernel parallelism bound.
func NewTrainer(master *Model, shards int) *Trainer {
	if shards < 1 {
		shards = DefaultTrainShards
	}
	return &Trainer{
		Master:       master,
		shards:       shards,
		workers:      tensor.MaxWorkers(),
		masterParams: master.Params(),
		masterBNs:    collectBatchNorms(master.Root),
	}
}

// Shards returns the fixed shard count.
func (t *Trainer) Shards() int { return t.shards }

// SetWorkers bounds how many shards run concurrently. It affects
// scheduling only — never results (shard geometry is fixed by the shard
// count). Values below 1 clamp to 1; values above GOMAXPROCS clamp to
// GOMAXPROCS, since oversubscribing schedulable CPUs only adds
// scheduling overhead.
func (t *Trainer) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if g := runtime.GOMAXPROCS(0); n > g {
		n = g
	}
	t.workers = n
}

// ForwardBackward runs one data-parallel forward+backward over the
// batch x (N,C,H,W) with the given integer labels, accumulating
// dLoss/dθ into the master's parameter gradients (like Model.Backward,
// it adds — call Master.ZeroGrad() to start a fresh step). weight
// scales the loss exactly as in CrossEntropy. It returns the weighted
// mean cross-entropy loss and the input gradient dLoss/dx; the
// returned tensor is owned by the trainer and valid until the next
// call.
func (t *Trainer) ForwardBackward(x *tensor.Tensor, labels []int, weight float32) (float32, *tensor.Tensor) {
	s := t.prepare(0, x, labels, weight)
	t.compute(s, x, labels)
	return t.reduce(s), s.inGrad
}

// ForwardBackwardPair runs two independent loss terms — (x0, l0, w0)
// and (x1, l1, w1) — as one step: both compute phases run at the same
// time on separate replica sets, then term 0 reduces into the master
// before term 1. Gradients, losses and input gradients are
// bit-identical to ForwardBackward(x0, l0, w0) followed by
// ForwardBackward(x1, l1, w1), at any worker count. The returned input
// gradients are owned by the trainer and valid until the next call.
//
// The master's batch norm must be frozen: live batch statistics would
// make the second term depend on the first term's running-stat update,
// so a pair panics rather than invent an order for folding them.
func (t *Trainer) ForwardBackwardPair(x0 *tensor.Tensor, l0 []int, w0 float32, x1 *tensor.Tensor, l1 []int, w1 float32) (loss0, loss1 float32, in0, in1 *tensor.Tensor) {
	for _, bn := range t.masterBNs {
		if !bn.Frozen {
			panic("nn: ForwardBackwardPair requires frozen batch norm")
		}
	}
	s0 := t.prepare(0, x0, l0, w0)
	s1 := t.prepare(1, x1, l1, w1)
	tensor.ParallelChunksIndexed(2, 2, t.workers, func(idx, _, _ int) {
		if idx == 0 {
			t.compute(s0, x0, l0)
		} else {
			t.compute(s1, x1, l1)
		}
	})
	loss0 = t.reduce(s0)
	loss1 = t.reduce(s1)
	return loss0, loss1, s0.inGrad, s1.inGrad
}

// prepare validates one term and sizes its replica set on the calling
// goroutine, so nothing that can panic or clone the master runs inside
// the concurrent compute phase. Replicas are built on first use.
func (t *Trainer) prepare(term int, x *tensor.Tensor, labels []int, weight float32) *replicaSet {
	n := x.Dim(0)
	if len(labels) != n {
		panic("nn: label count does not match batch size")
	}
	s := &t.terms[term]
	for len(s.replicas) < t.shards {
		s.replicas = append(s.replicas, newReplica(t.Master))
	}
	s.n, s.weight = n, weight
	s.sEff = t.shards
	if s.sEff > n {
		s.sEff = n
	}
	s.inGrad = tensor.Ensure(s.inGrad, x.Shape()...)
	return s
}

// compute is a step's first phase: resync the term's replicas from the
// master, then run forward+backward per shard. It writes only the
// term's own replicas and input-gradient buffer, so two terms may
// compute concurrently.
func (t *Trainer) compute(s *replicaSet, x *tensor.Tensor, labels []int) {
	n, sEff := s.n, s.sEff
	itemLen := x.Len() / n
	inGrad := s.inGrad

	// Resync before every step: master weights may have been mutated
	// since the last call (sign-SGD update, bit flip, requantization).
	for i := 0; i < sEff; i++ {
		s.replicas[i].syncFrom(t.masterParams, t.masterBNs)
	}

	shape := x.Shape()
	// The outer call fans the shard indices out to the workers; each
	// shard's item range is derived from its index, a pure function of
	// (n, sEff).
	tensor.ParallelChunksIndexed(sEff, sEff, t.workers, func(idx, _, _ int) {
		lo := idx * n / sEff
		hi := (idx + 1) * n / sEff
		rep := s.replicas[idx]
		rep.model.ZeroGrad()
		xs := tensor.FromSlice(x.Data()[lo*itemLen:hi*itemLen], append([]int{hi - lo}, shape[1:]...)...)
		logits := rep.model.Forward(xs, true)
		rep.grad = tensor.Ensure(rep.grad, logits.Shape()...)
		rep.lossSum = CrossEntropyInto(rep.grad, logits, labels[lo:hi], s.weight, n)
		gin := rep.model.Backward(rep.grad)
		copy(inGrad.Data()[lo*itemLen:hi*itemLen], gin.Data())
	})
}

// reduce is a step's second phase: fold the term's shard gradients,
// loss and (unfrozen) batch-norm statistics into the master in fixed
// shard order, returning the term's weighted mean loss.
func (t *Trainer) reduce(s *replicaSet) float32 {
	sEff := s.sEff
	if cap(t.slots) < sEff {
		t.slots = make([][]float32, sEff)
	}
	slots := t.slots[:sEff]
	for j, mp := range t.masterParams {
		for i := 0; i < sEff; i++ {
			slots[i] = s.replicas[i].params[j].G.Data()
		}
		tensor.TreeReduceInto(mp.G.Data(), slots)
	}

	var total float64
	for i := 0; i < sEff; i++ {
		total += s.replicas[i].lossSum
	}

	// Unfrozen batch norm computes shard-local ("ghost") statistics;
	// fold the replicas' running stats back into the master as the
	// fixed-order average over the shards that ran.
	for bi, mbn := range t.masterBNs {
		if mbn.Frozen {
			continue
		}
		inv := 1 / float64(sEff)
		for ch := range mbn.RunningMean {
			var sm, sv float64
			for i := 0; i < sEff; i++ {
				rbn := s.replicas[i].bns[bi]
				sm += float64(rbn.RunningMean[ch])
				sv += float64(rbn.RunningVar[ch])
			}
			mbn.RunningMean[ch] = float32(sm * inv)
			mbn.RunningVar[ch] = float32(sv * inv)
		}
	}

	return s.weight * float32(total) / float32(s.n)
}
