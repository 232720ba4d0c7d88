package tensor

// Float kernels of the int8 engine's data path (DESIGN §13): the
// activation max-abs and round-to-nearest quantizer in front of every
// int8 GEMM, the dequantizing epilogue behind it, and the residual
// add. Like the elementwise kernels (elementwise.go), each exported
// kernel runs an AVX2 body over the largest multiple of 8 elements
// when the AVX2 kernel set is in use and its portable Go twin over the
// rest; the body repeats the twin's operations in the same order, with
// the same first operand and no FMA, so both give the same bits. The
// engine's ReLU here is f < 0 → +0, which passes NaN and −0 through;
// the fp32 engine's ReLU and AddReLU map them to +0.

// MaxAbs returns the largest |v| over src, or +0 for an empty slice.
// NaN elements are skipped: a NaN never compares greater.
func MaxAbs(src []float32) float32 {
	var m float32
	i := 0
	if accelerated && len(src) >= 8 {
		i = len(src) &^ 7
		m = maxAbsAsm(&src[0], i)
	}
	return maxAbsGo(m, src[i:])
}

func maxAbsGo(m float32, src []float32) float32 {
	for _, v := range src {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// QuantizePlanesI8 quantizes back-to-back h×w planes of src with
// quantizeI8's rounding into dst's (h+2·pad)×(w+2·pad) planes, zeroing
// their pad-wide border. dst must hold as many padded planes as src
// holds planes.
func QuantizePlanesI8(dst []int8, src []float32, h, w, pad int, inv float32) {
	if pad == 0 {
		quantizeI8(dst[:len(src)], src, inv)
		return
	}
	ph, pw := h+2*pad, w+2*pad
	planes := len(src) / (h * w)
	dst = dst[:planes*ph*pw]
	clear(dst)
	w8 := 0
	if accelerated {
		w8 = w &^ 7
	}
	for p := 0; p < planes; p++ {
		plane := dst[p*ph*pw : (p+1)*ph*pw]
		in := src[p*h*w : (p+1)*h*w]
		if w8 > 0 {
			quantizeRowsAsm(&plane[pad*pw+pad], &in[0], h, w8, pw, w, inv)
		}
		if w8 < w {
			for y := 0; y < h; y++ {
				o := (y+pad)*pw + pad
				quantizeI8Go(plane[o+w8:o+w], in[y*w+w8:(y+1)*w], inv)
			}
		}
	}
}

// quantizeI8 writes the symmetric int8 code of each src element into
// dst: f = v·inv rounded half away from zero (f ≥ 0 ? f + 0.5 : f − 0.5,
// then truncated), clamped to ±127. A NaN f takes the f − 0.5 branch
// and truncates to the platform's out-of-range integer (−2³¹ on amd64,
// so −127 after the clamp). src must be at least as long as dst.
func quantizeI8(dst []int8, src []float32, inv float32) {
	src = src[:len(dst)]
	i := 0
	if accelerated && len(dst) >= 8 {
		i = len(dst) &^ 7
		quantizeRowsAsm(&dst[0], &src[0], 1, i, 0, 0, inv)
	}
	quantizeI8Go(dst[i:], src[i:], inv)
}

func quantizeI8Go(dst []int8, src []float32, inv float32) {
	src = src[:len(dst)]
	for i, v := range src {
		f := v * inv
		var c int32
		if f >= 0 {
			c = int32(f + 0.5)
		} else {
			c = int32(f - 0.5)
		}
		if c > 127 {
			c = 127
		} else if c < -127 {
			c = -127
		}
		dst[i] = int8(c)
	}
}

// DequantI32 writes float32(v)·mul + shift of each int32 accumulator
// into dst — a multiply, then an add — and, when relu is set, replaces
// results below zero with +0. src must be at least as long as dst.
func DequantI32(dst []float32, src []int32, mul, shift float32, relu bool) {
	src = src[:len(dst)]
	i := 0
	if accelerated && len(dst) >= 8 {
		i = len(dst) &^ 7
		if relu {
			dequantReLUAsm(&dst[0], &src[0], i, mul, shift)
		} else {
			dequantAsm(&dst[0], &src[0], i, mul, shift)
		}
	}
	dequantGo(dst[i:], src[i:], mul, shift, relu)
}

func dequantGo(dst []float32, src []int32, mul, shift float32, relu bool) {
	src = src[:len(dst)]
	if relu {
		for i, v := range src {
			f := float32(v)*mul + shift
			if f < 0 {
				f = 0
			}
			dst[i] = f
		}
		return
	}
	for i, v := range src {
		dst[i] = float32(v)*mul + shift
	}
}

// AddClampNeg writes a + b into dst, with sums below zero replaced by
// +0: the int8 engine's residual add+ReLU. dst may alias a or b; a and
// b must be at least as long as dst.
func AddClampNeg(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	if accelerated && len(dst) >= 8 {
		i = len(dst) &^ 7
		addClampNegAsm(&dst[0], &a[0], &b[0], i)
	}
	addClampNegGo(dst[i:], a[i:], b[i:])
}

func addClampNegGo(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		f := a[i] + b[i]
		if f < 0 {
			f = 0
		}
		dst[i] = f
	}
}
