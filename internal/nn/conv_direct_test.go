package nn

import (
	"fmt"
	"math"
	"testing"

	"rowhammer/internal/tensor"
)

// TestConvDirectMatchesIm2Col runs Conv2D forward, weight gradient and
// input gradient through the direct stride-1 path wherever its gates
// take a shape, and through the im2col + GEMM reference, and compares
// the results byte for byte. The grid crosses the gates' edges: row
// widths the register tiles take (8, 16, 32) and one they reject (12),
// unpadded 3×3 kernels whose output rows still fit a tile (10, 18),
// stride 2, 1×1 kernels, channel counts below, at and above the tile
// widths, and an odd input channel count.
func TestConvDirectMatchesIm2Col(t *testing.T) {
	channels := [][2]int{{3, 4}, {4, 4}, {4, 8}, {8, 8}, {16, 16}, {16, 32}}
	var fwd, data, weight int
	for _, ch := range channels {
		for _, hw := range []int{8, 10, 12, 16, 18, 32} {
			for _, k := range []int{1, 3} {
				for _, stride := range []int{1, 2} {
					for _, pad := range []int{0, 1} {
						for _, bias := range []bool{false, true} {
							for _, batch := range []int{1, 5} {
								name := fmt.Sprintf("%d-%d/%dx%d/k%d/s%d/p%d/bias=%v/n%d",
									ch[0], ch[1], hw, hw, k, stride, pad, bias, batch)
								if dc := tensor.NewDirectConv(ch[0], ch[1], hw, hw, k, k, stride, pad); dc != nil {
									fwd += b2i(dc.Fwd)
									data += b2i(dc.Data)
									weight += b2i(dc.Weight)
								}
								checkConvDirectIdentity(t, name, ch[0], ch[1], hw, k, stride, pad, bias, batch)
							}
						}
					}
				}
			}
		}
	}
	// On CPUs without the kernels every gate is closed and the grid
	// only checks the reference against itself.
	if fwd+data+weight > 0 && (fwd == 0 || data == 0 || weight == 0) {
		t.Fatalf("grid never took a direct product: fwd %d, data %d, weight %d cases", fwd, data, weight)
	}
	t.Logf("direct products in grid: fwd %d, data %d, weight %d cases", fwd, data, weight)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func checkConvDirectIdentity(t *testing.T, name string, inC, outC, hw, k, stride, pad int, bias bool, batch int) {
	t.Helper()
	rng := tensor.NewRNG(int64(inC*1000 + outC*100 + hw*10 + k))
	conv := NewConv2D("c", rng, inC, outC, k, stride, pad, bias)
	if bias {
		rng.FillNormal(conv.Bias.W, 0, 0.5)
	}
	x := tensor.New(batch, inC, hw, hw)
	rng.FillNormal(x, 0, 1)
	sprinkleZeros(rng, x.Data())
	oh, ow := conv.OutSize(hw, hw)
	g := tensor.New(batch, outC, oh, ow)
	rng.FillNormal(g, 0, 1)
	sprinkleZeros(rng, g.Data())

	run := func(force bool) [][]float32 {
		convForceIm2Col = force
		defer func() { convForceIm2Col = false }()
		var res [][]float32
		for _, p := range conv.Params() {
			p.G.Zero()
		}
		res = append(res, conv.Forward(x, false).Clone().Data())
		res = append(res, conv.Forward(x, true).Clone().Data())
		res = append(res, conv.Backward(g).Clone().Data())
		for _, p := range conv.Params() {
			res = append(res, p.G.Clone().Data())
		}
		return res
	}
	want := run(true)
	got := run(false)
	labels := []string{"eval forward", "train forward", "input gradient", "weight gradient", "bias gradient"}
	for i := range want {
		for j := range want[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
				t.Fatalf("%s: %s element %d: direct %v (%#08x), im2col %v (%#08x)", name, labels[i], j,
					got[i][j], math.Float32bits(got[i][j]), want[i][j], math.Float32bits(want[i][j]))
			}
		}
	}
}

// sprinkleZeros sets about a quarter of xs to +0 and a few to −0: ReLU
// outputs and gradients are full of zeros, and signed zeros are where
// a changed operation order would first show.
func sprinkleZeros(rng *tensor.RNG, xs []float32) {
	negZero := float32(math.Copysign(0, -1))
	for i := range xs {
		switch r := rng.Intn(16); {
		case r < 4:
			xs[i] = 0
		case r == 4:
			xs[i] = negZero
		}
	}
}

// TestConvDirectMatchesIm2ColNonFinite repeats the comparison with one
// non-finite value at a time: an infinite weight, a NaN weight, an
// infinite output gradient. The input-gradient kernels skip or mask to
// +0 every tap that falls outside the output rather than relying on a
// zero-padded gradient times a weight being 0, so they stay
// byte-identical where that product is NaN.
func TestConvDirectMatchesIm2ColNonFinite(t *testing.T) {
	cases := []struct {
		name string
		set  func(w, g []float32)
	}{
		{"inf weight", func(w, g []float32) { w[5] = float32(math.Inf(1)) }},
		{"inf weight ky0", func(w, g []float32) { w[36+9+1] = float32(math.Inf(-1)) }},
		{"nan weight", func(w, g []float32) { w[40] = float32(math.NaN()) }},
		{"inf gradient", func(w, g []float32) { g[7] = float32(math.Inf(-1)) }},
	}
	for _, c := range cases {
		for _, hw := range []int{8, 16, 32} {
			rng := tensor.NewRNG(int64(hw))
			conv := NewConv2D("c", rng, 4, 4, 3, 1, 1, false)
			x := tensor.New(2, 4, hw, hw)
			rng.FillNormal(x, 0, 1)
			g := tensor.New(2, 4, hw, hw)
			rng.FillNormal(g, 0, 1)
			c.set(conv.Weight.W.Data(), g.Data())

			run := func(force bool) [][]float32 {
				convForceIm2Col = force
				defer func() { convForceIm2Col = false }()
				conv.Weight.G.Zero()
				out := conv.Forward(x, true).Clone().Data()
				gin := conv.Backward(g).Clone().Data()
				return [][]float32{out, gin, conv.Weight.G.Clone().Data()}
			}
			want, got := run(true), run(false)
			for i, label := range []string{"forward", "input gradient", "weight gradient"} {
				for j := range want[i] {
					if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
						t.Fatalf("%s, %d²: %s element %d: direct %#08x, im2col %#08x",
							c.name, hw, label, j, math.Float32bits(got[i][j]), math.Float32bits(want[i][j]))
					}
				}
			}
		}
	}
}
