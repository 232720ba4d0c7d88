package nn

import (
	"math"

	"rowhammer/internal/tensor"
)

// BatchNorm2D normalizes each channel over the batch and spatial
// dimensions, with learnable per-channel scale (gamma) and shift (beta).
// Running statistics are tracked for inference.
type BatchNorm2D struct {
	Gamma *Param
	Beta  *Param

	// RunningMean and RunningVar are the exponential-moving-average
	// inference statistics. They are buffers, not trainable parameters,
	// so they do not appear in the attacked weight file.
	RunningMean []float32
	RunningVar  []float32

	// Frozen makes training-mode forwards normalize with the running
	// statistics (and keeps them fixed) instead of batch statistics —
	// the deployed-model fine-tuning mode the attack uses.
	Frozen bool

	channels int
	momentum float32
	eps      float32

	// Backward state: the training-mode input and the per-channel
	// statistics the forward normalized with. Backward recomputes
	// x̂ = (x − mean)·istd from them — the float32 operations the
	// forward ran, so the same values — instead of caching x̂. Like
	// Conv2D's lastInput, this relies on nothing writing the input
	// between a forward and its backward.
	lastInput  *tensor.Tensor
	lastMean   []float32
	lastIStd   []float32
	lastFrozen bool

	// Grow-only steady-state buffers (training-mode output and the
	// input gradient).
	outBuf    *tensor.Tensor
	gradInBuf *tensor.Tensor
}

var _ Layer = (*BatchNorm2D)(nil)

// NewBatchNorm2D constructs batch norm for the given channel count with
// gamma=1, beta=0, and identity running statistics.
func NewBatchNorm2D(name string, channels int) *BatchNorm2D {
	gamma := tensor.New(channels)
	gamma.Fill(1)
	rv := make([]float32, channels)
	for i := range rv {
		rv[i] = 1
	}
	return &BatchNorm2D{
		Gamma:       NewParam(name+".weight", gamma),
		Beta:        NewParam(name+".bias", tensor.New(channels)),
		RunningMean: make([]float32, channels),
		RunningVar:  rv,
		channels:    channels,
		momentum:    0.1,
		eps:         1e-5,
	}
}

// Forward implements Layer for input (N, C, H, W). Every mode is one
// per-channel affine pass over rows of H·W values (tensor.BNAffine).
// Training with batch statistics first reduces the statistics of a
// pair of channels (tensor.BNStatSums2, one channel per lane), so the
// affine pass finds the pair's rows still in cache.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	hw := h * w
	var out *tensor.Tensor
	if train {
		b.outBuf = tensor.Ensure(b.outBuf, n, c, h, w)
		out = b.outBuf
	} else {
		out = tensor.New(n, c, h, w)
	}
	xd, od := x.Data(), out.Data()
	gd, bd := b.Gamma.W.Data(), b.Beta.W.Data()

	if !train {
		// v·scale + shift: with mean +0 and istd 1 the affine pass's
		// first two operations are exact for every float32.
		batchParallel(c, func(lo, hi int) {
			for ch := lo; ch < hi; ch++ {
				scale := gd[ch] * b.runningIStd(ch)
				shift := bd[ch] - b.RunningMean[ch]*scale
				for i := 0; i < n; i++ {
					row := (i*c + ch) * hw
					tensor.BNAffine(od[row:row+hw], xd[row:row+hw], 0, 1, scale, shift)
				}
			}
		})
		return out
	}

	b.lastInput, b.lastFrozen = x, b.Frozen
	if len(b.lastMean) != c {
		b.lastMean = make([]float32, c)
		b.lastIStd = make([]float32, c)
	}
	batchParallel(c, func(lo, hi int) {
		for ch := lo; ch < hi; ch += 2 {
			k := min(2, hi-ch)
			if b.Frozen {
				// Frozen training mode: normalize with the running
				// statistics, which stay fixed.
				for q := ch; q < ch+k; q++ {
					b.lastMean[q], b.lastIStd[q] = b.RunningMean[q], b.runningIStd(q)
				}
			} else {
				var acc [4]float64 // Σx of ch, ch+k−1, then Σx²
				for i := 0; i < n; i++ {
					row := (i*c + ch) * hw
					last := row + (k-1)*hw
					tensor.BNStatSums2(&acc, xd[row:row+hw], xd[last:last+hw])
				}
				for q := 0; q < k; q++ {
					b.setStats(ch+q, acc[q], acc[2+q], float32(n*hw))
				}
			}
			for q := ch; q < ch+k; q++ {
				mean, istd, g, bt := b.lastMean[q], b.lastIStd[q], gd[q], bd[q]
				for i := 0; i < n; i++ {
					row := (i*c + q) * hw
					tensor.BNAffine(od[row:row+hw], xd[row:row+hw], mean, istd, g, bt)
				}
			}
		}
	})
	return out
}

// runningIStd is 1/√(running variance + eps), rounded to float32.
func (b *BatchNorm2D) runningIStd(ch int) float32 {
	return float32(1 / math.Sqrt(float64(b.RunningVar[ch])+float64(b.eps)))
}

// setStats derives channel ch's batch mean and inverse standard
// deviation from its sums over count values and folds mean and
// variance into the running statistics.
func (b *BatchNorm2D) setStats(ch int, sum, sqSum float64, count float32) {
	mean := float32(sum / float64(count))
	variance := float32(sqSum/float64(count)) - mean*mean
	if variance < 0 {
		variance = 0
	}
	b.lastMean[ch] = mean
	b.lastIStd[ch] = float32(1 / math.Sqrt(float64(variance)+float64(b.eps)))
	b.RunningMean[ch] = (1-b.momentum)*b.RunningMean[ch] + b.momentum*mean
	b.RunningVar[ch] = (1-b.momentum)*b.RunningVar[ch] + b.momentum*variance
}

// Backward implements Layer using the standard batch-norm gradient, or
// the simpler frozen-statistics gradient — y = γ·(x−μ_run)·istd + β, so
// dx = γ·istd·dy with no batch-coupling terms — when the forward pass
// ran with Frozen set. Channels go in pairs, as in Forward.
func (b *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	b.gradInBuf = tensor.Ensure(b.gradInBuf, grad.Shape()...)
	gd, gid, xd := grad.Data(), b.gradInBuf.Data(), b.lastInput.Data()
	n, hw := b.lastInput.Dim(0), b.lastInput.Dim(2)*b.lastInput.Dim(3)
	batchParallel(b.channels, func(lo, hi int) {
		for ch := lo; ch < hi; ch += 2 {
			b.backwardChannels(ch, min(2, hi-ch), gd, gid, xd, n, hw)
		}
	})
	return b.gradInBuf
}

// backwardChannels reduces Σdy and Σdy·x̂ of channels [ch, ch+k), k ≤ 2,
// in float64 (tensor.BNGradSums2: image by image, pixel by pixel within
// each channel), accumulates them into the β and γ gradients, and
// writes the channels' input-gradient rows: frozen, each image's rows
// right after their reduction, while they are in cache; otherwise
// after the whole reduction, which the batch-coupling terms need.
func (b *BatchNorm2D) backwardChannels(ch, k int, gd, gid, xd []float32, n, hw int) {
	c := b.channels
	var coef [2]float32
	for q := 0; q < k; q++ {
		coef[q] = b.Gamma.W.Data()[ch+q] * b.lastIStd[ch+q]
	}
	last := ch + k - 1 // a lone channel fills both lanes
	m0, is0 := b.lastMean[ch], b.lastIStd[ch]
	m1, is1 := b.lastMean[last], b.lastIStd[last]
	var acc [4]float64 // Σdy of ch, last, then Σdy·x̂
	for i := 0; i < n; i++ {
		r0, r1 := (i*c+ch)*hw, (i*c+last)*hw
		tensor.BNGradSums2(&acc, gd[r0:r0+hw], gd[r1:r1+hw], xd[r0:r0+hw], xd[r1:r1+hw], m0, is0, m1, is1)
		if b.lastFrozen {
			for q := 0; q < k; q++ {
				r := r0 + q*hw
				tensor.ScaleInto(gid[r:r+hw], gd[r:r+hw], coef[q])
			}
		}
	}
	count := float32(n * hw)
	for q := 0; q < k; q++ {
		cq := ch + q
		sumG, sumGX := acc[q], acc[2+q]
		b.Beta.G.Data()[cq] += float32(sumG)
		b.Gamma.G.Data()[cq] += float32(sumGX)
		if b.lastFrozen {
			continue
		}
		mean, istd := b.lastMean[cq], b.lastIStd[cq]
		meanG := float32(sumG) / count
		meanGX := float32(sumGX) / count
		for i := 0; i < n; i++ {
			r := (i*c + cq) * hw
			tensor.BNBackward(gid[r:r+hw], gd[r:r+hw], xd[r:r+hw], mean, istd, meanG, meanGX, coef[q])
		}
	}
}

// Params implements Layer.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }
