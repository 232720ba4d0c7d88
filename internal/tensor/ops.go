package tensor

import "math"

// Scale multiplies every element of t by s in place.
func (t *Tensor) Scale(s float32) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// AddScaled adds s*o to t in place (axpy): a multiply, then an add,
// never fused. Shapes must match.
func (t *Tensor) AddScaled(o *Tensor, s float32) {
	checkSame2(t, o)
	axpy(t.data, o.data, s)
}

// Clamp limits every element of t to [lo, hi] in place.
func (t *Tensor) Clamp(lo, hi float32) {
	for i, v := range t.data {
		if v < lo {
			t.data[i] = lo
		} else if v > hi {
			t.data[i] = hi
		}
	}
}

// Sum returns the sum of all elements (accumulated in float64 for
// stability).
func (t *Tensor) Sum() float32 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return float32(s)
}

// MaxAbs returns the largest absolute element value, or 0 for an empty
// tensor; NaN elements are skipped.
func (t *Tensor) MaxAbs() float32 { return MaxAbs(t.data) }

// ArgMaxRow returns, for a 2-D tensor, the column index of the maximum
// element in row r.
func (t *Tensor) ArgMaxRow(r int) int {
	if len(t.shape) != 2 {
		panic("tensor: ArgMaxRow requires a 2-D tensor")
	}
	cols := t.shape[1]
	row := t.data[r*cols : (r+1)*cols]
	best := 0
	for i := 1; i < cols; i++ {
		if row[i] > row[best] {
			best = i
		}
	}
	return best
}

// Norm2 returns the Euclidean norm of the tensor.
func (t *Tensor) Norm2() float32 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

func checkSame2(a, b *Tensor) {
	if !a.SameShape(b) {
		panic("tensor: shape mismatch")
	}
}
