package tensor

import (
	"fmt"
	"math"
	"testing"
)

// specialFloats are the inputs where a vector body most easily departs
// from its scalar twin: NaNs of both signs (and a payload), signed
// zeros, infinities, subnormals and values whose products overflow.
var specialFloats = []float32{
	float32(math.NaN()),
	float32(-math.NaN()),
	math.Float32frombits(0x7fc0_1234),
	0,
	float32(math.Copysign(0, -1)),
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	math.Float32frombits(1),            // smallest subnormal
	-math.Float32frombits(0x007f_ffff), // largest negative subnormal
	math.SmallestNonzeroFloat32 * 3,
	3e38,
	-3e38,
	1,
	-1,
}

// mixedFloats returns n values: mostly Gaussian, with special values
// scattered at positions that land in both the vector body and the
// scalar tail.
func mixedFloats(rng *RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = specialFloats[rng.Intn(len(specialFloats))]
		} else {
			v[i] = float32(rng.NormFloat64())
		}
	}
	return v
}

// kernelScalars are the per-call scalars the identity grid sweeps:
// ordinary values plus NaN, ±0, ±Inf and a subnormal.
var kernelScalars = []float32{0.75, -1.5, 1, 0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), math.Float32frombits(3), 3e38}

// elementwiseCase runs one exported elementwise kernel and its
// portable twin on the same inputs, each writing its result into dst.
// nanMeet, when set, reports whether element i's computation has an
// operation whose two operands are both NaN: x86 then returns the
// first operand's NaN, and since the Go compiler may swap the operands
// of a commutative scalar add or multiply, the twin's own payload in
// that case depends on how it was compiled. Only the NaN-ness of such
// an element is compared.
type elementwiseCase struct {
	name    string
	kernel  func(dst []float32, in [3][]float32, s []float32)
	twin    func(dst []float32, in [3][]float32, s []float32)
	nanMeet func(in [3][]float32, s []float32, i int) bool
}

// bothNaN reports whether a binary operation on a and b sees two NaNs.
func bothNaN(a, b float32) bool { return a != a && b != b }

var elementwiseCases = []elementwiseCase{
	{"ReLU",
		func(d []float32, in [3][]float32, _ []float32) { ReLU(d, in[0]) },
		func(d []float32, in [3][]float32, _ []float32) { reluGo(d, in[0]) }, nil},
	{"ReLUBackward",
		func(d []float32, in [3][]float32, _ []float32) { copy(d, in[0]); ReLUBackward(d, in[1]) },
		func(d []float32, in [3][]float32, _ []float32) { copy(d, in[0]); reluBackwardGo(d, in[1]) }, nil},
	{"AddReLU",
		func(d []float32, in [3][]float32, _ []float32) { AddReLU(d, in[0], in[1]) },
		func(d []float32, in [3][]float32, _ []float32) { addReLUGo(d, in[0], in[1]) }, nil},
	{"axpy",
		func(d []float32, in [3][]float32, s []float32) { copy(d, in[0]); axpy(d, in[1], s[0]) },
		func(d []float32, in [3][]float32, s []float32) { copy(d, in[0]); axpyGo(d, in[1], s[0]) },
		func(in [3][]float32, s []float32, i int) bool {
			return bothNaN(s[0], in[1][i]) || bothNaN(in[0][i], s[0]*in[1][i])
		}},
	{"BNAffine",
		func(d []float32, in [3][]float32, s []float32) { BNAffine(d, in[0], s[0], s[1], s[2], s[3]) },
		func(d []float32, in [3][]float32, s []float32) { bnAffineGo(d, in[0], s[0], s[1], s[2], s[3]) },
		func(in [3][]float32, s []float32, i int) bool {
			a := in[0][i] - s[0]
			b := a * s[1]
			return bothNaN(in[0][i], s[0]) || bothNaN(a, s[1]) || bothNaN(s[2], b) || bothNaN(s[2]*b, s[3])
		}},
	{"ScaleInto",
		func(d []float32, in [3][]float32, s []float32) { ScaleInto(d, in[0], s[0]) },
		func(d []float32, in [3][]float32, s []float32) { scaleGo(d, in[0], s[0]) },
		func(in [3][]float32, s []float32, i int) bool { return bothNaN(s[0], in[0][i]) }},
	{"BNBackward",
		func(d []float32, in [3][]float32, s []float32) {
			BNBackward(d, in[0], in[1], s[0], s[1], s[2], s[3], s[4])
		},
		func(d []float32, in [3][]float32, s []float32) {
			bnBackwardGo(d, in[0], in[1], s[0], s[1], s[2], s[3], s[4])
		},
		func(in [3][]float32, s []float32, i int) bool {
			g, x := in[0][i], in[1][i]
			a := x - s[0]
			xh := a * s[1]
			d := g - s[2]
			u := xh * s[3]
			return bothNaN(x, s[0]) || bothNaN(a, s[1]) || bothNaN(g, s[2]) ||
				bothNaN(xh, s[3]) || bothNaN(d, u) || bothNaN(s[4], d-u)
		}},
}

// TestElementwiseKernelsMatchTwins holds every AVX2 body bit-identical
// to its portable twin for lengths 0–70 (empty, tail-only, one and
// several vector steps, each with every tail length), at unaligned
// offsets, on inputs laced with NaN, ±0, ±Inf, subnormals and ±3e38,
// and with those values as the per-call scalars too.
func TestElementwiseKernelsMatchTwins(t *testing.T) {
	if !accelerated {
		t.Log("AVX2 kernel set not selected: comparing the portable twins with themselves")
	}
	rng := NewRNG(41)
	for _, c := range elementwiseCases {
		for n := 0; n <= 70; n++ {
			for trial := 0; trial < 4; trial++ {
				off := trial // start the slices off the 32-byte grid
				var in [3][]float32
				for k := range in {
					in[k] = mixedFloats(rng, n+off)[off:]
				}
				s := make([]float32, 5)
				for k := range s {
					s[k] = kernelScalars[rng.Intn(len(kernelScalars))]
				}
				if trial == 0 {
					copy(s, []float32{0.5, 2, -1.25, 0.125, 3})
				}
				got := make([]float32, n+off)[off:]
				want := make([]float32, n)
				c.kernel(got, in, s)
				c.twin(want, in, s)
				for i := range got {
					g, w := got[i], want[i]
					if math.Float32bits(g) == math.Float32bits(w) {
						continue
					}
					if g != g && w != w && c.nanMeet != nil && c.nanMeet(in, s, i) {
						continue
					}
					t.Fatalf("%s n=%d off=%d scalars=%v: [%d] = %#08x, twin %#08x (inputs %v)",
						c.name, n, off, s, i, math.Float32bits(g), math.Float32bits(w),
						fmt.Sprint(in[0][i], " ", in[1][i]))
				}
			}
		}
	}
}

// TestElementwiseKernelsWriteOnlyDst checks that no body reads or
// writes past the slice it was given.
func TestElementwiseKernelsWriteOnlyDst(t *testing.T) {
	rng := NewRNG(42)
	for _, c := range elementwiseCases {
		for _, n := range []int{8, 24, 32, 40, 64, 69} {
			var in [3][]float32
			for k := range in {
				in[k] = mixedFloats(rng, n)
			}
			backing := make([]float32, n+8)
			for i := range backing {
				backing[i] = 42
			}
			c.kernel(backing[:n], in, []float32{0.5, 2, -1.25, 0.125, 3})
			for i, v := range backing[n:] {
				if v != 42 {
					t.Fatalf("%s n=%d wrote past the slice at +%d", c.name, n, i)
				}
			}
		}
	}
}

// TestBNAffineIdentityStatsMatchScaleShift pins the eval-mode batch
// norm lowering: with mean +0 and istd 1, BNAffine(scale, shift)
// computes v·scale + shift bit for bit, because v − (+0) and (·)·1 are
// exact for every float32, −0 and NaN included.
func TestBNAffineIdentityStatsMatchScaleShift(t *testing.T) {
	rng := NewRNG(43)
	for _, n := range []int{0, 7, 8, 33, 70} {
		for _, scale := range kernelScalars {
			shift := kernelScalars[rng.Intn(len(kernelScalars))]
			x := mixedFloats(rng, n)
			got := make([]float32, n)
			BNAffine(got, x, 0, 1, scale, shift)
			want := make([]float32, n)
			for i, v := range x {
				want[i] = v*scale + shift
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !(got[i] != got[i] && (bothNaN(x[i], scale) || bothNaN(x[i]*scale, shift))) {
					t.Fatalf("n=%d scale=%v shift=%v x=%v: %#08x, want %#08x",
						n, scale, shift, x[i], math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestForcePortableKernelsRestores checks the seam: forced, no kernel
// reports acceleration; restored, the previous selection is back.
func TestForcePortableKernelsRestores(t *testing.T) {
	was, kern := accelerated, gemmDotABT != nil
	restore := ForcePortableKernels()
	if AcceleratedKernels() || gemmDotABT != nil || gemmAxpyB != nil || packBPanelFast != nil || packConvPanelFast != nil {
		t.Fatal("forced portable kernels still report an AVX2 kernel")
	}
	restore()
	if accelerated != was || (gemmDotABT != nil) != kern {
		t.Fatal("restore did not bring back the previous kernel selection")
	}
}

// TestBNSumsMatchTwins holds the two batch-norm reductions' AVX2
// bodies to their twins on the same grid as the elementwise kernels,
// starting from accumulators that already hold sums. Each lane is one
// channel's chain of float64 adds, so the sums must agree bit for bit;
// a NaN sum matches any NaN sum, for the reason elementwiseCase gives.
func TestBNSumsMatchTwins(t *testing.T) {
	rng := NewRNG(44)
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 4; trial++ {
			off := trial
			var in [4][]float32
			for k := range in {
				in[k] = mixedFloats(rng, n+off)[off:]
			}
			var start [4]float64
			for k := range start {
				start[k] = rng.NormFloat64() * 100
			}
			s := make([]float32, 4)
			for k := range s {
				s[k] = kernelScalars[rng.Intn(len(kernelScalars))]
			}
			if trial == 0 {
				copy(s, []float32{0.5, 2, -1.25, 0.75})
			}
			got, want := start, start
			BNStatSums2(&got, in[0], in[1])
			bnStatSums2Go(&want, in[0], in[1])
			checkSums(t, fmt.Sprintf("BNStatSums2 n=%d off=%d", n, off), got, want)
			got, want = start, start
			BNGradSums2(&got, in[0], in[1], in[2], in[3], s[0], s[1], s[2], s[3])
			bnGradSums2Go(&want, in[0], in[1], in[2], in[3], s[0], s[1], s[2], s[3])
			checkSums(t, fmt.Sprintf("BNGradSums2 n=%d off=%d scalars=%v", n, off, s), got, want)
		}
	}
}

func checkSums(t *testing.T, name string, got, want [4]float64) {
	t.Helper()
	for k := range got {
		g, w := got[k], want[k]
		if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: acc[%d] = %v (%#016x), twin %v (%#016x)", name, k, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}
