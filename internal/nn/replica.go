package nn

import "rowhammer/internal/tensor"

// replica is one loss term's working copy of the trainer's master: a
// structural clone plus the scratch the trainer reuses across steps.
type replica struct {
	model  *Model
	params []*Param
	bns    []*BatchNorm2D

	// grad is the dLoss/dLogits buffer and inGrad the input gradient
	// handed to the caller (both grow-only).
	grad, inGrad *tensor.Tensor
	// n, weight and lossSum describe the last step: the batch size, the
	// loss weight and the raw float64 negative-log-likelihood sum.
	n       int
	weight  float32
	lossSum float64
}

// newReplica structurally clones the master.
func newReplica(master *Model) *replica {
	m := master.Clone()
	return &replica{
		model:  m,
		params: m.Params(),
		bns:    collectBatchNorms(m.Root),
	}
}

// collectBatchNorms gathers the batch-norm layers in Walk order, which
// is deterministic and identical for structurally equal graphs.
func collectBatchNorms(root Layer) []*BatchNorm2D {
	var bns []*BatchNorm2D
	Walk(root, func(l Layer) {
		if bn, ok := l.(*BatchNorm2D); ok {
			bns = append(bns, bn)
		}
	})
	return bns
}

// syncFrom makes the replica an exact functional copy of the master:
// parameter values, batch-norm running statistics, and the Frozen
// flags. Gradient accumulators are not touched (the trainer zeroes
// them at the start of each step).
func (r *replica) syncFrom(masterParams []*Param, masterBNs []*BatchNorm2D) {
	for i, p := range masterParams {
		copy(r.params[i].W.Data(), p.W.Data())
	}
	for i, mbn := range masterBNs {
		rbn := r.bns[i]
		rbn.Frozen = mbn.Frozen
		copy(rbn.RunningMean, mbn.RunningMean)
		copy(rbn.RunningVar, mbn.RunningVar)
	}
}
