package tensor

import (
	"math/rand"
	"testing"
)

func randI8(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(rng.Intn(255) - 127)
	}
	return s
}

func checkGemmI8(t *testing.T, m, k, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*1000003 + k*1009 + n)))
	a := randI8(rng, m*k)
	b := randI8(rng, k*n)
	want := make([]int32, m*n)
	gemmI8Naive(want, a, m, k, b, n)

	got := make([]int32, m*n)
	pa := make([]int16, PackAI8Len(m, k))
	PackAI8(pa, a, m, k)
	GemmI8PackedA(got, pa, m, k, n, matrixI8{b: b, n: n})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("m=%d k=%d n=%d: c[%d] = %d, want %d", m, k, n, i, got[i], want[i])
		}
	}

	// Convenience wrapper (may dispatch to the naive path on small
	// shapes — either way the result must be exact).
	got2 := make([]int32, m*n)
	GemmI8(got2, a, m, k, b, n)
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("GemmI8 m=%d k=%d n=%d: c[%d] = %d, want %d", m, k, n, i, got2[i], want[i])
		}
	}
}

// TestGemmI8MatchesNaive sweeps tile-edge and slab-edge shapes: every
// MR/NR remainder, odd k (pair padding), and sizes crossing the KC/NC
// blocking boundaries. int32 accumulation is exact, so the comparison
// is equality.
func TestGemmI8MatchesNaive(t *testing.T) {
	sizes := []struct{ m, k, n int }{
		{1, 1, 1},
		{2, 3, 4},
		{3, 7, 5},
		{4, 16, 16},
		{5, 17, 17},
		{6, 31, 33},
		{7, 64, 48},
		{8, 129, 40},    // odd k crossing nothing
		{16, 512, 64},   // exactly one KC slab
		{16, 513, 64},   // odd k crossing the KC boundary
		{16, 700, 100},  // two KC slabs, ragged edges
		{3, 9, 1030},    // crosses the NC boundary with a tiny m
		{33, 600, 1100}, // multi-slab, multi-block, all remainders
	}
	for _, s := range sizes {
		checkGemmI8(t, s.m, s.k, s.n)
	}
}

// TestGemmI8PortableKernel forces the portable kernel set (the pure-Go
// 2×4 kernel and packing) so both kernel paths are exercised regardless
// of host CPU.
func TestGemmI8PortableKernel(t *testing.T) {
	defer ForcePortableKernels()()
	checkGemmI8(t, 33, 600, 1100)
	checkGemmI8(t, 5, 17, 9)
}

// TestGemmI8SingleWorker covers the SetMaxWorkers(1) inline path the
// single-thread benchmarks rely on.
func TestGemmI8SingleWorker(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	checkGemmI8(t, 16, 700, 1100)
}

// TestIm2ColI8MatchesFloat holds the int8 im2col reference the
// lowering grid (pack_i8_test.go) checks ConvI8 against to the float
// Im2Col.
func TestIm2ColI8MatchesFloat(t *testing.T) {
	c, h, w := 3, 7, 6
	kh, kw, stride, pad := 3, 3, 2, 1
	rng := rand.New(rand.NewSource(11))
	img8 := randI8(rng, c*h*w)
	imgF := make([]float32, len(img8))
	for i, v := range img8 {
		imgF[i] = float32(v)
	}
	want := make([]float32, ColBufLen(c, h, w, kh, kw, stride, pad))
	oh, ow := Im2Col(imgF, c, h, w, kh, kw, stride, pad, want)

	// Two samples share one wide destination; both columns must match
	// the single-image float reference.
	cols := oh * ow
	dst := make([]int8, c*kh*kw*2*cols)
	for i := range dst {
		dst[i] = 99 // poison
	}
	im2colI8(img8, h*w, c, h, w, kh, kw, stride, pad, dst, 2*cols, 0)
	im2colI8(img8, h*w, c, h, w, kh, kw, stride, pad, dst, 2*cols, cols)
	for r := 0; r < c*kh*kw; r++ {
		for j := 0; j < cols; j++ {
			ref := want[r*cols+j]
			for s := 0; s < 2; s++ {
				got := float32(dst[r*2*cols+s*cols+j])
				if got != ref {
					t.Fatalf("row %d col %d sample %d: got %v, want %v", r, j, s, got, ref)
				}
			}
		}
	}
}

func BenchmarkGemmI8(b *testing.B) {
	m, k, n := 128, 576, 1024
	rng := rand.New(rand.NewSource(5))
	a := randI8(rng, m*k)
	bm := randI8(rng, k*n)
	c := make([]int32, m*n)
	pa := make([]int16, PackAI8Len(m, k))
	PackAI8(pa, a, m, k)
	b.ReportAllocs()
	b.SetBytes(int64(2 * m * n * k))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmI8PackedA(c, pa, m, k, n, matrixI8{b: bm, n: n})
	}
}
