package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if len(x.Shape()) != 3 || x.Dim(1) != 3 {
		t.Fatalf("bad dims: %v", x.Shape())
	}
}

func TestNewRejectsBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimension")
		}
	}()
	New(2, 0)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := x.Data()[2*4+1]; got != 7.5 {
		t.Fatalf("row-major layout broken: %v", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x.At(2, 0)
}

func TestFromSliceValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Data()[0] = 99
	if x.Data()[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Data()[5] = -1
	if x.Data()[5] != -1 {
		t.Fatal("Reshape must share storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	check := func(name string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s = %v, want %v", name, got, want)
			}
		}
	}
	x := []float32{1.5, -2, negZero, nan, 0, 3}
	dst := make([]float32, len(x))
	ReLU(dst, x)
	check("ReLU", dst, []float32{1.5, 0, 0, 0, 0, 3})
	g := []float32{1, 2, 3, 4, 5, 6}
	ReLUBackward(g, dst)
	check("ReLUBackward", g, []float32{1, 0, 0, 0, 0, 6})
	AddReLU(dst, x, []float32{1, 1, 1, 1, 1, -4})
	check("AddReLU", dst, []float32{2.5, 0, 1, 0, 1, 0})
	BNAffine(dst, []float32{3, 1, 5, -1, 3, 3}, 1, 0.5, 2, 1)
	check("BNAffine", dst, []float32{3, 1, 5, -1, 3, 3})
	ScaleInto(dst, []float32{1, -2, 0, 4, 0.5, 3}, -2)
	check("ScaleInto", dst, []float32{-2, 4, negZero, -8, -1, -6})
	BNBackward(dst, []float32{3, 1, 1, 1, 1, 1}, []float32{5, 1, 1, 1, 1, 1}, 1, 0.5, 1, 2, 3)
	check("BNBackward", dst, []float32{-6, 0, 0, 0, 0, 0})
}

func TestScaleAddScaledClamp(t *testing.T) {
	a := FromSlice([]float32{1, -2, 3}, 3)
	a.Scale(2)
	if a.Data()[1] != -4 {
		t.Fatalf("Scale: %v", a.Data())
	}
	b := FromSlice([]float32{1, 1, 1}, 3)
	a.AddScaled(b, 0.5)
	if a.Data()[0] != 2.5 {
		t.Fatalf("AddScaled: %v", a.Data())
	}
	a.Clamp(-3, 3)
	if a.Data()[1] != -3 || a.Data()[2] != 3 {
		t.Fatalf("Clamp: %v", a.Data())
	}
}

func TestSumDotNorm(t *testing.T) {
	a := FromSlice([]float32{3, 4}, 2)
	if a.Sum() != 7 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if math.Abs(float64(a.Norm2())-5) > 1e-6 {
		t.Fatalf("Norm2 = %v", a.Norm2())
	}
	if a.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestArgMaxRow(t *testing.T) {
	a := FromSlice([]float32{1, 9, 2, 7, 0, 3}, 2, 3)
	if a.ArgMaxRow(0) != 1 || a.ArgMaxRow(1) != 0 {
		t.Fatal("ArgMaxRow wrong")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data()[i], w)
		}
	}
}

func TestMatMulRejectsMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

// matMulNaive is the reference implementation used to cross-check the
// parallel kernels.
func matMulNaive(a, b *Tensor) *Tensor {
	m, k := a.Shape()[0], a.Shape()[1]
	n := b.Shape()[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data()[i*k+p] * b.Data()[p*n+j]
			}
			c.Data()[i*n+j] = s
		}
	}
	return c
}

func transpose(a *Tensor) *Tensor {
	m, n := a.Shape()[0], a.Shape()[1]
	tr := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			tr.Data()[j*m+i] = a.Data()[i*n+j]
		}
	}
	return tr
}

func TestMatMulVariantsAgree(t *testing.T) {
	rng := NewRNG(7)
	for trial := 0; trial < 10; trial++ {
		m, k, n := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a := New(m, k)
		b := New(k, n)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		want := matMulNaive(a, b)

		got := MatMul(a, b)
		assertClose(t, got, want, "MatMul")

		got2 := New(m, n)
		MatMulATBInto(got2, transpose(a), b)
		assertClose(t, got2, want, "MatMulATB")

		got3 := New(m, n)
		MatMulABTInto(got3, a, transpose(b))
		assertClose(t, got3, want, "MatMulABT")
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(3)
	a := New(130, 40)
	b := New(40, 30)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	prev := SetMaxWorkers(1)
	serial := MatMul(a, b)
	SetMaxWorkers(8)
	par := MatMul(a, b)
	SetMaxWorkers(prev)
	assertClose(t, par, serial, "parallel vs serial")
}

func assertClose(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v != %v", label, got.Shape(), want.Shape())
	}
	for i := range got.Data() {
		d := float64(got.Data()[i] - want.Data()[i])
		if math.Abs(d) > 1e-3 {
			t.Fatalf("%s: elem %d differs: %v vs %v", label, i, got.Data()[i], want.Data()[i])
		}
	}
}

// convNaive computes a direct convolution as the im2col cross-check.
func convNaive(img []float32, c, h, w int, weight []float32, m, kh, kw, stride, pad int) ([]float32, int, int) {
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	out := make([]float32, m*oh*ow)
	for oc := 0; oc < m; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				for ic := 0; ic < c; ic++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= w {
								continue
							}
							s += img[ic*h*w+iy*w+ix] * weight[((oc*c+ic)*kh+ky)*kw+kx]
						}
					}
				}
				out[oc*oh*ow+oy*ow+ox] = s
			}
		}
	}
	return out, oh, ow
}

func TestIm2ColMatchesDirectConv(t *testing.T) {
	rng := NewRNG(11)
	cases := []struct{ c, h, w, m, kh, kw, stride, pad int }{
		{1, 5, 5, 2, 3, 3, 1, 1},
		{3, 8, 8, 4, 3, 3, 2, 1},
		{2, 7, 9, 3, 1, 1, 1, 0},
		{2, 6, 6, 2, 3, 3, 2, 0},
	}
	for _, cs := range cases {
		img := New(cs.c * cs.h * cs.w)
		rng.FillNormal(img, 0, 1)
		weight := New(cs.m, cs.c*cs.kh*cs.kw)
		rng.FillNormal(weight, 0, 1)

		col := make([]float32, ColBufLen(cs.c, cs.h, cs.w, cs.kh, cs.kw, cs.stride, cs.pad))
		oh, ow := Im2Col(img.Data(), cs.c, cs.h, cs.w, cs.kh, cs.kw, cs.stride, cs.pad, col)
		colT := FromSlice(col, cs.c*cs.kh*cs.kw, oh*ow)
		got := MatMul(weight, colT)

		wantData, woh, wow := convNaive(img.Data(), cs.c, cs.h, cs.w, weight.Data(), cs.m, cs.kh, cs.kw, cs.stride, cs.pad)
		if oh != woh || ow != wow {
			t.Fatalf("output dims %dx%d != %dx%d", oh, ow, woh, wow)
		}
		want := FromSlice(wantData, cs.m, oh*ow)
		assertClose(t, got, want, "im2col conv")
	}
}

func TestCol2ImIsIm2ColAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> must hold for the gradient to be
	// correct.
	rng := NewRNG(5)
	c, h, w, kh, kw, stride, pad := 2, 6, 6, 3, 3, 1, 1
	x := New(c * h * w)
	rng.FillNormal(x, 0, 1)
	colLen := ColBufLen(c, h, w, kh, kw, stride, pad)
	y := New(colLen)
	rng.FillNormal(y, 0, 1)

	colX := make([]float32, colLen)
	Im2Col(x.Data(), c, h, w, kh, kw, stride, pad, colX)
	lhs := MatMul(FromSlice(colX, 1, colLen), y.Reshape(colLen, 1)).Data()[0]

	back := make([]float32, c*h*w)
	Col2Im(y.Data(), c, h, w, kh, kw, stride, pad, back)
	rhs := MatMul(FromSlice(back, 1, c*h*w), x.Reshape(c*h*w, 1)).Data()[0]

	if math.Abs(float64(lhs-rhs)) > 1e-2 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	ta, tb := New(16), New(16)
	a.FillNormal(ta, 0, 1)
	b.FillNormal(tb, 0, 1)
	for i := range ta.Data() {
		if ta.Data()[i] != tb.Data()[i] {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestKaimingNormalScale(t *testing.T) {
	rng := NewRNG(1)
	w := New(10000)
	rng.KaimingNormal(w, 50)
	var s float64
	for _, v := range w.Data() {
		s += float64(v) * float64(v)
	}
	variance := s / float64(w.Len())
	want := 2.0 / 50.0
	if math.Abs(variance-want)/want > 0.15 {
		t.Fatalf("Kaiming variance %v, want ~%v", variance, want)
	}
}

// Property: matmul distributes over addition, (A+B)C = AC + BC.
func TestMatMulDistributesOverAddition(t *testing.T) {
	rng := NewRNG(9)
	f := func(seed int64) bool {
		r := NewRNG(seed)
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a, b, c := New(m, k), New(m, k), New(k, n)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		rng.FillNormal(c, 0, 1)
		sum := a.Clone()
		sum.AddScaled(b, 1)
		lhs := MatMul(sum, c)
		rhs := MatMul(a, c)
		rhs.AddScaled(MatMul(b, c), 1)
		for i := range lhs.Data() {
			if math.Abs(float64(lhs.Data()[i]-rhs.Data()[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
