package nn

import (
	"fmt"
	"math"
	"testing"

	"rowhammer/internal/tensor"
)

// elementwiseShapes cover rows shorter than one AVX2 step (hw 1, 3·3),
// rows with every kind of tail (5·7 = 35, 6·6 = 36) and whole steps
// (8·8), with odd and even channel counts so batch norm runs both its
// channel-pair and its single-channel reductions.
var elementwiseShapes = [][4]int{{3, 5, 1, 1}, {2, 3, 3, 3}, {2, 3, 5, 7}, {4, 4, 8, 8}, {3, 6, 6, 6}}

// laced fills t with N(mean, std) and, when special is set, replaces
// about one value in twelve with a NaN, a signed zero, an infinity, a
// subnormal or ±3e38.
func laced(rng *tensor.RNG, t *tensor.Tensor, mean, std float64, special bool) {
	rng.FillNormal(t, mean, std)
	if !special {
		return
	}
	vals := []float32{float32(math.NaN()), 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)),
		float32(math.Inf(-1)), math.Float32frombits(5), -math.Float32frombits(0x7fffff), 3e38, -3e38}
	d := t.Data()
	for i := range d {
		if rng.Intn(12) == 0 {
			d[i] = vals[rng.Intn(len(vals))]
		}
	}
}

// randomBN returns a batch norm with seeded non-trivial γ, β and
// running statistics.
func randomBN(rng *tensor.RNG, name string, c int, frozen bool) *BatchNorm2D {
	bn := NewBatchNorm2D(name, c)
	rng.FillNormal(bn.Gamma.W, 1, 0.5)
	rng.FillNormal(bn.Beta.W, 0, 0.5)
	for ch := 0; ch < c; ch++ {
		bn.RunningMean[ch] = float32(rng.NormFloat64())
		bn.RunningVar[ch] = float32(0.5 + rng.Float64())
	}
	bn.Frozen = frozen
	return bn
}

// elementwiseLayers builds each layer under test afresh (same seed,
// same values) for a c-channel input.
var elementwiseLayers = []struct {
	name  string
	train bool
	build func(c int) Layer
}{
	{"ReLU", true, func(int) Layer { return NewReLU() }},
	{"ReLU/eval", false, func(int) Layer { return NewReLU() }},
	{"BatchNorm2D/train", true, func(c int) Layer { return randomBN(tensor.NewRNG(7), "bn", c, false) }},
	{"BatchNorm2D/frozen", true, func(c int) Layer { return randomBN(tensor.NewRNG(7), "bn", c, true) }},
	{"BatchNorm2D/eval", false, func(c int) Layer { return randomBN(tensor.NewRNG(7), "bn", c, false) }},
	{"Residual/identity", true, func(c int) Layer {
		rng := tensor.NewRNG(8)
		return NewResidual(NewSequential(randomBN(rng, "a", c, false), NewReLU(), randomBN(rng, "b", c, false)), nil)
	}},
	{"Residual/shortcut", true, func(c int) Layer {
		rng := tensor.NewRNG(9)
		return NewResidual(NewSequential(randomBN(rng, "a", c, true), NewReLU(), randomBN(rng, "b", c, true)),
			randomBN(rng, "s", c, true))
	}},
	{"Residual/eval", false, func(c int) Layer {
		rng := tensor.NewRNG(8)
		return NewResidual(NewSequential(randomBN(rng, "a", c, false), NewReLU(), randomBN(rng, "b", c, false)),
			randomBN(rng, "s", c, false))
	}},
}

// runElementwise runs one forward (and, in training mode, one backward)
// of a fresh layer and returns copies of everything it produced: the
// output, the input gradient, every parameter gradient and every batch
// norm's running statistics.
func runElementwise(build func(int) Layer, train bool, x, grad *tensor.Tensor) [][]float32 {
	l := build(x.Dim(1))
	var res [][]float32
	keep := func(v []float32) { res = append(res, append([]float32(nil), v...)) }
	keep(l.Forward(x, train).Data())
	if train {
		keep(l.Backward(grad.Clone()).Data()) // ReLU masks its gradient in place
		for _, p := range l.Params() {
			keep(p.G.Data())
		}
	}
	Walk(l, func(l Layer) {
		if bn, ok := l.(*BatchNorm2D); ok {
			keep(bn.RunningMean)
			keep(bn.RunningVar)
		}
	})
	return res
}

// TestElementwiseLayersMatchPortableKernels holds ReLU, Residual and
// BatchNorm2D (batch statistics, frozen, eval) bit-identical between
// the AVX2 kernel set and the portable one, at one and four batch
// workers: forward outputs, input gradients, γ/β gradients and running
// statistics. A NaN matches any NaN: where two NaN operands meet, the
// payload x86 keeps depends on operand order, which the Go compiler
// may swap in a commutative scalar operation (DESIGN §12).
func TestElementwiseLayersMatchPortableKernels(t *testing.T) {
	if !tensor.AcceleratedKernels() {
		t.Log("AVX2 kernel set not selected: comparing the portable kernels with themselves")
	}
	defer SetBatchWorkers(SetBatchWorkers(1))
	for _, shape := range elementwiseShapes {
		for _, special := range []bool{false, true} {
			rng := tensor.NewRNG(int64(shape[1]*100 + shape[2]))
			x := tensor.New(shape[:]...)
			grad := tensor.New(shape[:]...)
			laced(rng, x, 0.3, 1.5, special)
			laced(rng, grad, 0, 1, special)
			for _, lc := range elementwiseLayers {
				name := fmt.Sprintf("%s/%v/special=%v", lc.name, shape, special)
				SetBatchWorkers(4)
				want := runElementwise(lc.build, lc.train, x, grad)
				for _, portable := range []bool{false, true} {
					for _, workers := range []int{1, 4} {
						SetBatchWorkers(workers)
						restore := func() {}
						if portable {
							restore = tensor.ForcePortableKernels()
						}
						got := runElementwise(lc.build, lc.train, x, grad)
						restore()
						compareRuns(t, fmt.Sprintf("%s/portable=%v/workers=%d", name, portable, workers), got, want)
					}
				}
			}
		}
	}
}

func compareRuns(t *testing.T, name string, got, want [][]float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", name, len(got), len(want))
	}
	for k := range got {
		for i, g := range got[k] {
			w := want[k][i]
			if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
				t.Fatalf("%s: output %d [%d] = %v (%#08x), want %v (%#08x)",
					name, k, i, g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
	}
}

// refBatchNorm is batch norm as one scalar loop per channel — the
// formulation the layer is held to: per-channel float64 sums, image by
// image and pixel by pixel, and x̂ cached from the forward. It returns
// the output, the input gradient and the γ/β gradients, and updates
// bn's running statistics as the layer does.
func refBatchNorm(bn *BatchNorm2D, x, grad *tensor.Tensor, train bool) (out, gradIn, gGamma, gBeta []float32) {
	n, c, hw := x.Dim(0), x.Dim(1), x.Dim(2)*x.Dim(3)
	xd, gd := x.Data(), grad.Data()
	gamma, beta := bn.Gamma.W.Data(), bn.Beta.W.Data()
	out, gradIn = make([]float32, len(xd)), make([]float32, len(xd))
	gGamma, gBeta = make([]float32, c), make([]float32, c)
	xh := make([]float32, len(xd))
	count := float32(n * hw)
	for ch := 0; ch < c; ch++ {
		istd := float32(1 / math.Sqrt(float64(bn.RunningVar[ch])+float64(bn.eps)))
		mean := bn.RunningMean[ch]
		if !train {
			scale := gamma[ch] * istd
			shift := beta[ch] - mean*scale
			for i := 0; i < n; i++ {
				for j := 0; j < hw; j++ {
					k := (i*c+ch)*hw + j
					out[k] = xd[k]*scale + shift
				}
			}
			continue
		}
		if !bn.Frozen {
			var sum, sqSum float64
			for i := 0; i < n; i++ {
				for j := 0; j < hw; j++ {
					v := float64(xd[(i*c+ch)*hw+j])
					sum += v
					sqSum += v * v
				}
			}
			mean = float32(sum / float64(count))
			variance := float32(sqSum/float64(count)) - mean*mean
			if variance < 0 {
				variance = 0
			}
			istd = float32(1 / math.Sqrt(float64(variance)+float64(bn.eps)))
			bn.RunningMean[ch] = (1-bn.momentum)*bn.RunningMean[ch] + bn.momentum*mean
			bn.RunningVar[ch] = (1-bn.momentum)*bn.RunningVar[ch] + bn.momentum*variance
		}
		var sumG, sumGX float64
		for i := 0; i < n; i++ {
			for j := 0; j < hw; j++ {
				k := (i*c+ch)*hw + j
				xh[k] = (xd[k] - mean) * istd
				out[k] = gamma[ch]*xh[k] + beta[ch]
				sumG += float64(gd[k])
				sumGX += float64(gd[k]) * float64(xh[k])
			}
		}
		gBeta[ch], gGamma[ch] = float32(sumG), float32(sumGX)
		coef := gamma[ch] * istd
		meanG, meanGX := float32(sumG)/count, float32(sumGX)/count
		for i := 0; i < n; i++ {
			for j := 0; j < hw; j++ {
				k := (i*c+ch)*hw + j
				if bn.Frozen {
					gradIn[k] = coef * gd[k]
				} else {
					gradIn[k] = coef * (gd[k] - meanG - xh[k]*meanGX)
				}
			}
		}
	}
	return out, gradIn, gGamma, gBeta
}

// TestBatchNormMatchesScalarReference holds BatchNorm2D — channel
// pairs reduced side by side, x̂ recomputed in Backward, every pass a
// vector kernel — bit-identical to refBatchNorm in all three modes, on
// both kernel sets and at one and four batch workers.
func TestBatchNormMatchesScalarReference(t *testing.T) {
	defer SetBatchWorkers(SetBatchWorkers(1))
	for _, shape := range elementwiseShapes {
		for _, special := range []bool{false, true} {
			rng := tensor.NewRNG(int64(shape[1]*100 + shape[2] + 1))
			x := tensor.New(shape[:]...)
			grad := tensor.New(shape[:]...)
			laced(rng, x, -0.2, 2, special)
			laced(rng, grad, 0, 1, special)
			for _, mode := range []string{"train", "frozen", "eval"} {
				ref := randomBN(tensor.NewRNG(11), "bn", shape[1], mode == "frozen")
				out, gradIn, gGamma, gBeta := refBatchNorm(ref, x, grad, mode != "eval")
				want := [][]float32{out, ref.RunningMean, ref.RunningVar}
				if mode != "eval" {
					want = append(want, gradIn, gGamma, gBeta)
				}
				for _, portable := range []bool{false, true} {
					for _, workers := range []int{1, 4} {
						SetBatchWorkers(workers)
						restore := func() {}
						if portable {
							restore = tensor.ForcePortableKernels()
						}
						bn := randomBN(tensor.NewRNG(11), "bn", shape[1], mode == "frozen")
						got := [][]float32{bn.Forward(x, mode != "eval").Data(), bn.RunningMean, bn.RunningVar}
						if mode != "eval" {
							got = append(got, bn.Backward(grad).Data(), bn.Gamma.G.Data(), bn.Beta.G.Data())
						}
						restore()
						compareRuns(t, fmt.Sprintf("%s/%v/special=%v/portable=%v/workers=%d", mode, shape, special, portable, workers), got, want)
					}
				}
			}
		}
	}
}
