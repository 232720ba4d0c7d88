package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// im2colI8 is the explicit int8 lowering, the reference the implicit
// ConvI8 packer is checked against. It lowers
// one quantized image into columns of a shared batched column matrix:
// channel ch lives at img[ch*chanStride : ch*chanStride+h*w]
// (chanStride = n*h*w with img at sample i's plane inside a CNHW
// block), and the (C·KH·KW) × (OH·OW) column block is written into dst
// with row stride dstStride at column offset colOff. Zero padding
// emits the zero code.
func im2colI8(img []int8, chanStride, c, h, w, kh, kw, stride, pad int, dst []int8, dstStride, colOff int) (oh, ow int) {
	oh = (h+2*pad-kh)/stride + 1
	ow = (w+2*pad-kw)/stride + 1
	row := 0
	for ch := 0; ch < c; ch++ {
		base := ch * chanStride
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				out := dst[row*dstStride+colOff:]
				idx := 0
				// Valid ox range: 0 ≤ ox·stride + kx − pad < w.
				xlo := 0
				if pad > kx {
					xlo = (pad - kx + stride - 1) / stride
				}
				xhi := -1
				if d := w - 1 - kx + pad; d >= 0 {
					xhi = min(d/stride, ow-1)
				}
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h || xhi < xlo {
						zeroI8(out[idx : idx+ow])
						idx += ow
						continue
					}
					rowBase := base + iy*w
					zeroI8(out[idx : idx+xlo])
					if stride == 1 {
						// Contiguous interior: one memmove per row.
						lo := rowBase + xlo + kx - pad
						copy(out[idx+xlo:idx+xhi+1], img[lo:lo+xhi+1-xlo])
					} else {
						for ox := xlo; ox <= xhi; ox++ {
							out[idx+ox] = img[rowBase+ox*stride+kx-pad]
						}
					}
					zeroI8(out[idx+xhi+1 : idx+ow])
					idx += ow
				}
				row++
			}
		}
	}
	return oh, ow
}

func zeroI8(s []int8) {
	for i := range s {
		s[i] = 0
	}
}

// padPlanes copies c·n unpadded h×w int8 planes into planes zero-padded
// by pad on every side, the layout the quantized engine writes.
func padPlanes(x []int8, planes, h, w, pad int) []int8 {
	ph, pw := h+2*pad, w+2*pad
	out := make([]int8, planes*ph*pw)
	for p := 0; p < planes; p++ {
		for y := 0; y < h; y++ {
			copy(out[p*ph*pw+(y+pad)*pw+pad:][:w], x[p*h*w+y*w:][:w])
		}
	}
	return out
}

// checkConvI8 multiplies a random m×(c·k·k) weight matrix against the
// lowering of a random (c, n, h, w) int8 activation two ways: the
// explicit im2colI8 matrix through gemmI8Naive, and the ConvI8 packer
// over padded planes through GemmI8PackedA. int32 accumulation is
// exact, so the two must be equal.
func checkConvI8(t *testing.T, m, c, n, h, k, stride, pad int) {
	t.Helper()
	name := fmt.Sprintf("m=%d c=%d n=%d h=w=%d k=%d stride=%d pad=%d", m, c, n, h, k, stride, pad)
	rng := rand.New(rand.NewSource(int64(c*131 + n*17 + h*7 + k*3 + stride + pad*1000)))
	w := h
	x := randI8(rng, c*n*h*w)
	kk := c * k * k
	a := randI8(rng, m*kk)
	oh := (h+2*pad-k)/stride + 1
	ow := (w+2*pad-k)/stride + 1
	ncols := n * oh * ow
	cols := make([]int8, kk*ncols)
	for i := 0; i < n; i++ {
		im2colI8(x[i*h*w:], n*h*w, c, h, w, k, k, stride, pad, cols, ncols, i*oh*ow)
	}
	want := make([]int32, m*ncols)
	gemmI8Naive(want, a, m, kk, cols, ncols)

	src := ConvI8(padPlanes(x, c*n, h, w, pad), c, n, h+2*pad, w+2*pad, k, k, stride)
	pa := make([]int16, PackAI8Len(m, kk))
	PackAI8(pa, a, m, kk)
	got := make([]int32, m*ncols)
	GemmI8PackedA(got, pa, m, kk, ncols, src)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: c[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}

	// The panels themselves, slab by slab as GemmI8PackedA asks for
	// them, equal packBI8Panels over the explicit matrix: zero-filled
	// slots included, which the GEMM cannot see (A's odd-k tail and
	// rows past m are zero too).
	for pc := 0; pc < kk; pc += gemmI8KC {
		kc := min(gemmI8KC, kk-pc)
		for jc := 0; jc < ncols; jc += gemmI8NC {
			nc := min(gemmI8NC, ncols-jc)
			size := (nc + gemmI8NR - 1) / gemmI8NR * gemmI8NR * ((kc + 1) / 2) * 2
			gotP, wantP := make([]int16, size), make([]int16, size)
			for i := range gotP {
				gotP[i], wantP[i] = 99, 99
			}
			src.packB(gotP, pc, kc, jc, nc)
			packBI8Panels(wantP, cols, ncols, pc, kc, jc, nc)
			for i := range wantP {
				if gotP[i] != wantP[i] {
					t.Fatalf("%s: slab pc=%d jc=%d: panel element %d = %d, want %d", name, pc, jc, i, gotP[i], wantP[i])
				}
			}
		}
	}
}

// TestConvI8MatchesIm2ColGemm is the lowering grid: the implicit-im2col
// packer plus the blocked GEMM against explicit im2col plus the naive
// GEMM for C ∈ {3, 4, 16}, H = W ∈ {1, 7, 8, 16, 32}, 1×1 and 3×3
// kernels, stride 1 and 2, pad 0 and 1, n ∈ {1, 3, 64}, under the
// selected and the portable kernel sets. The grid holds odd K (C = 3),
// 16-column panels that span output rows (ow = 7, 8) and samples, and
// ragged final panels; two more shapes cross the KC slab boundary,
// one with odd K. -short skips n = 64 at H = 32.
func TestConvI8MatchesIm2ColGemm(t *testing.T) {
	run := func(t *testing.T) {
		for _, c := range []int{3, 4, 16} {
			for _, h := range []int{1, 7, 8, 16, 32} {
				for _, k := range []int{1, 3} {
					for _, stride := range []int{1, 2} {
						for _, pad := range []int{0, 1} {
							if h+2*pad < k {
								continue
							}
							for _, n := range []int{1, 3, 64} {
								if testing.Short() && n == 64 && h == 32 {
									continue
								}
								checkConvI8(t, 6, c, n, h, k, stride, pad)
							}
						}
					}
				}
			}
		}
		checkConvI8(t, 5, 64, 3, 8, 3, 1, 1) // K = 576: two KC slabs
		checkConvI8(t, 5, 57, 2, 7, 3, 1, 1) // K = 513: odd, two KC slabs
	}
	t.Run("selected", run)
	t.Run("portable", func(t *testing.T) {
		defer ForcePortableKernels()()
		run(t)
	})
}

// TestConvI8LinearLowering covers the lowering the int8 Linear op uses
// on a spatial input: a kernel as large as the plane is the flatten,
// row (ch·h + y)·w + x and column i holding x[(ch·n + i)·h·w + y·w + x].
func TestConvI8LinearLowering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, n, h, w := 3, 5, 2, 3
	x := randI8(rng, c*n*h*w)
	src := ConvI8(x, c, n, h, w, h, w, 1)
	k := c * h * w
	dst := make([]int16, ((n+gemmI8NR-1)/gemmI8NR)*gemmI8NR*((k+1)/2)*2)
	src.packB(dst, 0, k, 0, n)
	kc2 := (k + 1) / 2
	for r := 0; r < k; r++ {
		for i := 0; i < n; i++ {
			panel, col := i/gemmI8NR, i%gemmI8NR
			got := dst[panel*kc2*2*gemmI8NR+(r/2)*2*gemmI8NR+2*col+r%2]
			ch, s := r/(h*w), r%(h*w)
			if want := int16(x[(ch*n+i)*h*w+s]); got != want {
				t.Fatalf("row %d col %d: %d, want %d", r, i, got, want)
			}
		}
	}
}
