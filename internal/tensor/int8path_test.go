package tensor

import (
	"math"
	"runtime"
	"testing"
)

// edgeFloats are the quantizer's edge inputs at inv = 1: exact .5 ties
// of both signs, the ±127 clamp edge and the values just inside and
// past it, and the largest float32 below 0.5.
var edgeFloats = []float32{
	0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 126.5, -126.5, 127.5, -127.5,
	127, -127, 128, -128, 127.49999, -127.49999, 0.49999997, -0.49999997,
}

// int8PathFloats returns n values mixing Gaussian noise scaled to the
// code range, the special values of the elementwise grid and the
// quantizer's edge values.
func int8PathFloats(rng *RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		switch rng.Intn(4) {
		case 0:
			v[i] = specialFloats[rng.Intn(len(specialFloats))]
		case 1:
			v[i] = edgeFloats[rng.Intn(len(edgeFloats))]
		default:
			v[i] = float32(rng.NormFloat64() * 60)
		}
	}
	return v
}

// edgeInt32s are accumulators whose float32 conversion rounds: ties
// at 2²⁴ + 1 and 2²⁵ + 2 (to even), and the int32 extremes.
var edgeInt32s = []int32{0, 1, -1, 1<<24 + 1, -(1<<24 + 1), 1<<24 + 3, 1<<25 + 2, 1<<25 + 6, math.MaxInt32, math.MinInt32}

func int8PathInt32s(rng *RNG, n int) []int32 {
	v := make([]int32, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = edgeInt32s[rng.Intn(len(edgeInt32s))]
		} else {
			v[i] = int32(rng.NormFloat64() * 3e4)
		}
	}
	return v
}

// quantizeScalars are the inv factors the quantizer grid sweeps: 1
// (the edge values land on ties and the clamp edge as written), a
// typical 127/max|x|, and the NaN, ±0, ±Inf and subnormal factors.
var quantizeScalars = []float32{1, 127.0 / 180, 2, 0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(3)}

func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// TestInt8PathKernelsMatchTwins holds the int8 data path's AVX2 bodies
// bit-identical to their portable twins for lengths 0–70 (every tail
// length around zero, one and several vector steps), at unaligned
// offsets, on inputs laced with NaN, ±0, ±Inf, subnormals, exact .5
// ties and the ±127 clamp edge. Where the twin's add meets two NaNs,
// only NaN-ness is compared (elementwiseCase gives the reason).
func TestInt8PathKernelsMatchTwins(t *testing.T) {
	if !accelerated {
		t.Log("AVX2 kernel set not selected: comparing the portable twins with themselves")
	}
	rng := NewRNG(51)
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 6; trial++ {
			off := trial % 4
			x := int8PathFloats(rng, n+off)[off:]
			y := int8PathFloats(rng, n+off)[off:]
			acc := int8PathInt32s(rng, n+off)[off:]

			if got, want := MaxAbs(x), maxAbsGo(0, x); !sameBits(got, want) {
				t.Fatalf("MaxAbs n=%d off=%d: %v, twin %v", n, off, got, want)
			}

			inv := quantizeScalars[trial%len(quantizeScalars)]
			if trial == 5 {
				inv = quantizeScalars[rng.Intn(len(quantizeScalars))]
			}
			q := make([]int8, n+off)[off:]
			qw := make([]int8, n)
			quantizeI8(q, x, inv)
			quantizeI8Go(qw, x, inv)
			for i := range q {
				if q[i] != qw[i] {
					t.Fatalf("quantizeI8 n=%d off=%d inv=%v: [%d] = %d, twin %d (input %v)", n, off, inv, i, q[i], qw[i], x[i])
				}
			}

			mul := kernelScalars[rng.Intn(len(kernelScalars))]
			shift := kernelScalars[rng.Intn(len(kernelScalars))]
			if trial == 0 {
				mul, shift = 0.0125, -0.5
			}
			for _, relu := range []bool{false, true} {
				got := make([]float32, n+off)[off:]
				want := make([]float32, n)
				DequantI32(got, acc, mul, shift, relu)
				dequantGo(want, acc, mul, shift, relu)
				for i := range got {
					if sameBits(got[i], want[i]) || (got[i] != got[i] && want[i] != want[i] && bothNaN(float32(acc[i])*mul, shift)) {
						continue
					}
					t.Fatalf("DequantI32 n=%d off=%d relu=%v mul=%v shift=%v: [%d] = %#08x, twin %#08x (acc %d)",
						n, off, relu, mul, shift, i, math.Float32bits(got[i]), math.Float32bits(want[i]), acc[i])
				}
			}

			// In place on the first operand, as the residual op runs it.
			got := append([]float32(nil), x...)
			want := make([]float32, n)
			AddClampNeg(got, got, y)
			addClampNegGo(want, x, y)
			for i := range got {
				if sameBits(got[i], want[i]) || (got[i] != got[i] && want[i] != want[i] && bothNaN(x[i], y[i])) {
					continue
				}
				t.Fatalf("AddClampNeg n=%d off=%d: [%d] = %#08x, twin %#08x (inputs %v %v)",
					n, off, i, math.Float32bits(got[i]), math.Float32bits(want[i]), x[i], y[i])
			}
		}
	}
}

// TestInt8PathTwinSemantics pins the twins' documented edge behavior:
// ties round away from zero, the clamp is ±127, f + 0.5 rounds in
// float32 (so the largest float below 0.5 gives 1), a NaN code is −127
// on amd64 (the truncation of NaN is platform-defined), and the
// engine's ReLU passes NaN and −0 through.
func TestInt8PathTwinSemantics(t *testing.T) {
	in := []float32{0.5, -0.5, 1.5, -2.5, 126.5, 127.5, -127.5, 300, -300, 0.49999997, float32(math.Copysign(0, -1))}
	want := []int8{1, -1, 2, -3, 127, 127, -127, 127, -127, 1, 0}
	got := make([]int8, len(in))
	quantizeI8(got, in, 1)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("quantizeI8(%v) = %d, want %d", in[i], got[i], want[i])
		}
	}
	nan := float32(math.NaN())
	if runtime.GOARCH == "amd64" {
		quantizeI8(got[:1], []float32{nan}, 1)
		if got[0] != -127 {
			t.Errorf("quantizeI8(NaN) = %d, want -127 on amd64", got[0])
		}
	}
	negZero := float32(math.Copysign(0, -1))
	out := make([]float32, 3)
	AddClampNeg(out, []float32{nan, negZero, -1}, []float32{1, 0 * negZero, 0.5})
	if out[0] == out[0] || !sameBits(out[1], negZero) || !sameBits(out[2], 0) {
		t.Errorf("AddClampNeg = %v, want [NaN -0 0]", out)
	}
	if m := MaxAbs([]float32{nan, -3, negZero, 2}); m != 3 {
		t.Errorf("MaxAbs = %v, want 3", m)
	}
}

// TestInt8PathKernelsWriteOnlyDst checks that no body writes past the
// slice it was given.
func TestInt8PathKernelsWriteOnlyDst(t *testing.T) {
	rng := NewRNG(52)
	for _, n := range []int{8, 17, 24, 32, 40, 64, 69} {
		x := int8PathFloats(rng, n)
		acc := int8PathInt32s(rng, n)
		q := make([]int8, n+8)
		for i := range q {
			q[i] = 42
		}
		quantizeI8(q[:n], x, 1)
		f := make([]float32, n+8)
		for i := range f {
			f[i] = 42
		}
		DequantI32(f[:n], acc, 0.5, 1, true)
		g := make([]float32, n+8)
		for i := range g {
			g[i] = 42
		}
		AddClampNeg(g[:n], x, x)
		for i := n; i < n+8; i++ {
			if q[i] != 42 || f[i] != 42 || g[i] != 42 {
				t.Fatalf("n=%d: a kernel wrote past the slice at +%d", n, i-n)
			}
		}
	}
}

// TestQuantizePlanesI8 checks the padded-plane writer against
// quantizeI8 on each row plus an explicit zero border, for widths with
// and without an 8-wide vector body and a scalar remainder, pad 0–2,
// under the selected and the portable kernel sets.
func TestQuantizePlanesI8(t *testing.T) {
	run := func(t *testing.T) {
		rng := NewRNG(53)
		for _, h := range []int{1, 3, 8} {
			for _, w := range []int{1, 7, 8, 12, 17, 32, 35} {
				for pad := 0; pad <= 2; pad++ {
					planes := 3
					src := int8PathFloats(rng, planes*h*w)
					ph, pw := h+2*pad, w+2*pad
					got := make([]int8, planes*ph*pw+5)
					for i := range got {
						got[i] = 42
					}
					QuantizePlanesI8(got, src, h, w, pad, 127.0/180)
					want := make([]int8, planes*ph*pw)
					for p := 0; p < planes; p++ {
						for y := 0; y < h; y++ {
							o := p*ph*pw + (y+pad)*pw + pad
							quantizeI8Go(want[o:o+w], src[(p*h+y)*w:], 127.0/180)
						}
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("h=%d w=%d pad=%d: [%d] = %d, want %d", h, w, pad, i, got[i], want[i])
						}
					}
					for i := len(want); i < len(got); i++ {
						if got[i] != 42 {
							t.Fatalf("h=%d w=%d pad=%d: wrote past the planes at %d", h, w, pad, i)
						}
					}
				}
			}
		}
	}
	t.Run("selected", run)
	t.Run("portable", func(t *testing.T) {
		defer ForcePortableKernels()()
		run(t)
	})
}
