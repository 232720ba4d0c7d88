package nn

import "rowhammer/internal/tensor"

// DefaultTrainShards is the shard count of every Trainer: each loss
// term runs the whole batch on one replica, which reproduces the
// monolithic single-graph gradient exactly.
const DefaultTrainShards = 1

// Trainer is the training engine behind the attack's gradient passes.
// It runs forward+backward on structural replicas of a master model and
// folds the replicas' gradients into the master's accumulators.
//
// Determinism contract: the accumulated master gradients, the returned
// loss and the returned input gradient are bit-identical to the direct
// Model.Forward/CrossEntropy/Model.Backward path, at any
// tensor.MaxWorkers bound (including 1).
//
// Term-order contract: a step is a compute phase (forward+backward on
// a replica) followed by a reduce phase (folding the replica's
// gradients into the master). ForwardBackwardPair computes two loss
// terms concurrently on two independent replicas, then reduces term 0
// before term 1 — master G = (G + g₀) + g₁, exactly the order two
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

	masterParams []*Param
	masterBNs    []*BatchNorm2D
	// terms[0] serves ForwardBackward and a pair's first term; terms[1]
	// serves a pair's second term and stays nil until the first pair.
	terms [2]*replica
}

// NewTrainer builds a trainer over master. Replicas are constructed
// lazily on first use, so a Trainer over a model that is still being
// mutated costs nothing until the first step. The shards parameter
// remains only for perfbench, a separate module that calls
// NewTrainer(m, 0): values ≤ DefaultTrainShards are accepted, anything
// larger panics.
func NewTrainer(master *Model, shards int) *Trainer {
	if shards > DefaultTrainShards {
		panic("nn: a Trainer runs one shard")
	}
	return &Trainer{
		Master:       master,
		masterParams: master.Params(),
		masterBNs:    collectBatchNorms(master.Root),
	}
}

// ForwardBackward runs one forward+backward over the batch x (N,C,H,W)
// with the given integer labels, accumulating dLoss/dθ into the
// master's parameter gradients (like Model.Backward, it adds — call
// Master.ZeroGrad() to start a fresh step). weight scales the loss
// exactly as in CrossEntropy. It returns the weighted mean
// cross-entropy loss and the input gradient dLoss/dx; the returned
// tensor is owned by the trainer and valid until the next call.
func (t *Trainer) ForwardBackward(x *tensor.Tensor, labels []int, weight float32) (float32, *tensor.Tensor) {
	r := t.prepare(0, x, labels, weight)
	t.compute(r, x, labels)
	return t.reduce(r), r.inGrad
}

// ForwardBackwardPair runs two independent loss terms — (x0, l0, w0)
// and (x1, l1, w1) — as one step: both compute phases run at the same
// time on separate replicas whenever tensor.MaxWorkers() ≥ 2, then
// term 0 reduces into the master before term 1. Gradients, losses and
// input gradients are bit-identical to ForwardBackward(x0, l0, w0)
// followed by ForwardBackward(x1, l1, w1), at any worker count. The
// returned input gradients are owned by the trainer and valid until the
// next call.
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
	r0 := t.prepare(0, x0, l0, w0)
	r1 := t.prepare(1, x1, l1, w1)
	tensor.ParallelChunksIndexed(2, 2, tensor.MaxWorkers(), func(idx, _, _ int) {
		if idx == 0 {
			t.compute(r0, x0, l0)
		} else {
			t.compute(r1, x1, l1)
		}
	})
	loss0 = t.reduce(r0)
	loss1 = t.reduce(r1)
	return loss0, loss1, r0.inGrad, r1.inGrad
}

// prepare validates one term and sizes its replica on the calling
// goroutine, so nothing that can panic or clone the master runs inside
// the concurrent compute phase. The replica is built on first use.
func (t *Trainer) prepare(term int, x *tensor.Tensor, labels []int, weight float32) *replica {
	n := x.Dim(0)
	if len(labels) != n {
		panic("nn: label count does not match batch size")
	}
	if t.terms[term] == nil {
		t.terms[term] = newReplica(t.Master)
	}
	r := t.terms[term]
	r.n, r.weight = n, weight
	r.inGrad = tensor.Ensure(r.inGrad, x.Shape()...)
	return r
}

// compute is a step's first phase: resync the term's replica from the
// master, then run forward+backward on it. It writes only the term's
// own replica, so two terms may compute concurrently.
func (t *Trainer) compute(r *replica, x *tensor.Tensor, labels []int) {
	// Resync before every step: master weights may have been mutated
	// since the last call (sign-SGD update, bit flip, requantization).
	r.syncFrom(t.masterParams, t.masterBNs)
	r.model.ZeroGrad()
	logits := r.model.Forward(x, true)
	r.grad = tensor.Ensure(r.grad, logits.Shape()...)
	r.lossSum = CrossEntropyInto(r.grad, logits, labels, r.weight, r.n)
	copy(r.inGrad.Data(), r.model.Backward(r.grad).Data())
}

// reduce is a step's second phase: add the term's gradients into the
// master's, hand unfrozen batch norm's updated running statistics to
// the master, and return the term's weighted mean loss.
func (t *Trainer) reduce(r *replica) float32 {
	for j, mp := range t.masterParams {
		dst, src := mp.G.Data(), r.params[j].G.Data()
		for i := range dst {
			dst[i] += src[i]
		}
	}
	for bi, mbn := range t.masterBNs {
		if !mbn.Frozen {
			copy(mbn.RunningMean, r.bns[bi].RunningMean)
			copy(mbn.RunningVar, r.bns[bi].RunningVar)
		}
	}
	return r.weight * float32(r.lossSum) / float32(r.n)
}
