package nn

import (
	"math"

	"rowhammer/internal/tensor"
)

// CrossEntropy computes the mean cross-entropy loss of logits (N, K)
// against integer labels, and the gradient dLoss/dLogits, optionally
// scaled by weight (used for the α-blended attack objective of Eq. 3).
func CrossEntropy(logits *tensor.Tensor, labels []int, weight float32) (loss float32, grad *tensor.Tensor) {
	n := logits.Dim(0)
	grad = tensor.New(logits.Shape()...)
	total := CrossEntropyInto(grad, logits, labels, weight, n)
	return weight * float32(total) / float32(n), grad
}

// CrossEntropyInto is the allocation-free core of CrossEntropy: it
// writes dLoss/dLogits into grad (same shape as logits) scaled by
// weight/denom, and returns the raw float64 sum of per-row negative log
// likelihoods (unweighted, undivided). Passing denom == N reproduces
// CrossEntropy bit for bit. The data-parallel trainer feeds per-shard
// logits with denom set to the FULL batch size: because softmax rows
// are independent, the per-row gradients are then bit-identical to the
// full-batch computation regardless of how the batch is sharded.
func CrossEntropyInto(grad, logits *tensor.Tensor, labels []int, weight float32, denom int) float64 {
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic("nn: label count does not match batch size")
	}
	if grad.Len() != logits.Len() {
		panic("nn: gradient buffer size does not match logits")
	}
	ld, gd := logits.Data(), grad.Data()
	var total float64
	invN := weight / float32(denom)
	for i := 0; i < n; i++ {
		row := ld[i*k : (i+1)*k]
		dst := gd[i*k : (i+1)*k]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - m))
			dst[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range dst {
			dst[j] *= inv
		}
		y := labels[i]
		p := dst[y]
		if p < 1e-12 {
			p = 1e-12
		}
		total += -math.Log(float64(p))
		for j := range dst {
			dst[j] *= invN
		}
		dst[y] -= invN
	}
	return total
}

// CrossEntropyLoss computes the same weighted mean cross-entropy as
// CrossEntropy without materializing the gradient — the forward-only
// evaluation the offline attack's candidate scorer performs thousands of
// times. The per-row arithmetic (float64 exp-sum, float32 inverse and
// probability, the 1e-12 clamp) mirrors CrossEntropyInto exactly so the
// two paths agree bit for bit.
func CrossEntropyLoss(logits *tensor.Tensor, labels []int, weight float32) float32 {
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic("nn: label count does not match batch size")
	}
	ld := logits.Data()
	var total float64
	for i := 0; i < n; i++ {
		row := ld[i*k : (i+1)*k]
		total += RowNLL(row, labels[i])
	}
	return weight * float32(total) / float32(n)
}

// RowNLL returns the negative log likelihood of class y under the
// softmax of one logit row, with CrossEntropyInto's exact float
// discipline: exponentials accumulate in float64 but are stored through
// float32 before the float32 inverse-sum multiply. Exported so callers
// holding logits in non-row-major layouts (the quantized engine's
// channel-major activations) can reuse the bit-exact row loss.
func RowNLL(row []float32, y int) float64 {
	m := row[0]
	for _, v := range row[1:] {
		if v > m {
			m = v
		}
	}
	var sum float64
	for _, v := range row {
		sum += math.Exp(float64(v - m))
	}
	inv := float32(1 / sum)
	p := float32(math.Exp(float64(row[y]-m))) * inv
	if p < 1e-12 {
		p = 1e-12
	}
	return -math.Log(float64(p))
}

// Accuracy returns the fraction of rows in logits whose argmax equals
// the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n := logits.Dim(0)
	correct := 0
	for i := 0; i < n; i++ {
		if logits.ArgMaxRow(i) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
