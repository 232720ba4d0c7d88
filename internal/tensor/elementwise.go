package tensor

// Elementwise kernels of the fp32 training engine: ReLU forward and
// backward, the residual add+ReLU, axpy, and the batch-norm affine,
// input-gradient and reduction passes. Each exported kernel runs an
// AVX2 body over the largest multiple of 8 elements (4 for the
// reductions; elementwise_amd64.s) when the AVX2 kernel set is in use,
// and its portable Go twin below over the rest. Every AVX2 body
// performs the same floating-point operations as its twin, in the same
// order and with the same first operand, and never fuses a multiply
// into an add, so the two produce the same bits for every input,
// signed zeros, infinities, subnormals and NaNs included. The one
// exception: where two NaN operands meet, either NaN may come out,
// because the Go compiler may swap a commutative scalar operation's
// operands (DESIGN §12).

// ReLU writes max(v, 0) of each src element into dst: v > 0 ? v : +0,
// so NaN and −0 map to +0. src must be at least as long as dst.
func ReLU(dst, src []float32) {
	src = src[:len(dst)]
	i := 0
	if accelerated && len(dst) >= 8 {
		i = len(dst) &^ 7
		reluAsm(&dst[0], &src[0], i)
	}
	reluGo(dst[i:], src[i:])
}

func reluGo(dst, src []float32) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// ReLUBackward masks a gradient in place with a ReLU's output: grad[i]
// is kept where out[i] > 0 and set to +0 elsewhere (out[i] NaN
// included). out must be at least as long as grad.
func ReLUBackward(grad, out []float32) {
	out = out[:len(grad)]
	i := 0
	if accelerated && len(grad) >= 8 {
		i = len(grad) &^ 7
		reluBackwardAsm(&grad[0], &out[0], i)
	}
	reluBackwardGo(grad[i:], out[i:])
}

func reluBackwardGo(grad, out []float32) {
	for i, v := range out {
		if !(v > 0) {
			grad[i] = 0
		}
	}
}

// AddReLU writes ReLU(a + b) into dst: the residual block's add and
// activation in one pass. a and b must be at least as long as dst.
func AddReLU(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	if accelerated && len(dst) >= 8 {
		i = len(dst) &^ 7
		addReLUAsm(&dst[0], &a[0], &b[0], i)
	}
	addReLUGo(dst[i:], a[i:], b[i:])
}

func addReLUGo(dst, a, b []float32) {
	for i := range dst {
		if v := a[i] + b[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// axpy adds s·src to dst in place: a multiply, then an add.
func axpy(dst, src []float32, s float32) {
	src = src[:len(dst)]
	i := 0
	if accelerated && len(dst) >= 8 {
		i = len(dst) &^ 7
		axpyAsm(&dst[0], &src[0], i, s)
	}
	axpyGo(dst[i:], src[i:], s)
}

func axpyGo(dst, src []float32, s float32) {
	for i := range dst {
		dst[i] += s * src[i]
	}
}

// BNAffine writes gamma·((v − mean)·istd) + beta of each src element
// into dst — batch norm's normalize-and-scale, rounded after every
// operation. src must be at least as long as dst.
func BNAffine(dst, src []float32, mean, istd, gamma, beta float32) {
	src = src[:len(dst)]
	i := 0
	if accelerated && len(dst) >= 8 {
		i = len(dst) &^ 7
		bnAffineAsm(&dst[0], &src[0], i, mean, istd, gamma, beta)
	}
	bnAffineGo(dst[i:], src[i:], mean, istd, gamma, beta)
}

func bnAffineGo(dst, src []float32, mean, istd, gamma, beta float32) {
	for i, v := range src {
		xh := (v - mean) * istd
		dst[i] = gamma*xh + beta
	}
}

// ScaleInto writes s·src into dst. src must be at least as long as
// dst.
func ScaleInto(dst, src []float32, s float32) {
	src = src[:len(dst)]
	i := 0
	if accelerated && len(dst) >= 8 {
		i = len(dst) &^ 7
		scaleAsm(&dst[0], &src[0], i, s)
	}
	scaleGo(dst[i:], src[i:], s)
}

func scaleGo(dst, src []float32, s float32) {
	for i, v := range src {
		dst[i] = s * v
	}
}

// BNBackward writes batch norm's batch-statistics input gradient,
// coef·((g − meanG) − x̂·meanGX) with x̂ = (x − mean)·istd recomputed
// from the layer input, into dst. g and x must be at least as long as
// dst.
func BNBackward(dst, g, x []float32, mean, istd, meanG, meanGX, coef float32) {
	g, x = g[:len(dst)], x[:len(dst)]
	i := 0
	if accelerated && len(dst) >= 8 {
		i = len(dst) &^ 7
		bnBackwardAsm(&dst[0], &g[0], &x[0], i, mean, istd, meanG, meanGX, coef)
	}
	bnBackwardGo(dst[i:], g[i:], x[i:], mean, istd, meanG, meanGX, coef)
}

func bnBackwardGo(dst, g, x []float32, mean, istd, meanG, meanGX, coef float32) {
	for i, gv := range g {
		xh := (x[i] - mean) * istd
		dst[i] = coef * (gv - meanG - xh*meanGX)
	}
}

// BNStatSums2 adds one image's rows of two batch-norm channels to the
// channels' float64 sums: acc holds Σx of channel 0 and 1, then Σx² of
// channel 0 and 1. Each channel adds its values one at a time in row
// order, exactly as a one-channel loop would; the AVX2 body keeps the
// two channels in the two lanes of one register, so a single add
// advances both chains. r1 must be at least as long as r0; passing one
// row twice gives a lone channel's sums in lanes 0 and 1 alike.
func BNStatSums2(acc *[4]float64, r0, r1 []float32) {
	r1 = r1[:len(r0)]
	i := 0
	if accelerated && len(r0) >= 4 {
		i = len(r0) &^ 3
		bnStatSums2Asm(acc, &r0[0], &r1[0], i)
	}
	bnStatSums2Go(acc, r0[i:], r1[i:])
}

func bnStatSums2Go(acc *[4]float64, r0, r1 []float32) {
	s0, s1, q0, q1 := acc[0], acc[1], acc[2], acc[3]
	r1 = r1[:len(r0)]
	for j, f := range r0 {
		v0, v1 := float64(f), float64(r1[j])
		s0 += v0
		q0 += v0 * v0
		s1 += v1
		q1 += v1 * v1
	}
	acc[0], acc[1], acc[2], acc[3] = s0, s1, q0, q1
}

// BNGradSums2 is BNStatSums2 for batch norm's backward sums: acc holds
// Σdy of channel 0 and 1, then Σdy·x̂ of channel 0 and 1, with
// x̂ = (x − mean)·istd rounded to float32 as the forward rounded it.
// The float64 product of two float32 values is exact, so only the adds
// round. g1, x0 and x1 must be at least as long as g0.
func BNGradSums2(acc *[4]float64, g0, g1, x0, x1 []float32, mean0, istd0, mean1, istd1 float32) {
	n := len(g0)
	g1, x0, x1 = g1[:n], x0[:n], x1[:n]
	i := 0
	if accelerated && n >= 4 {
		i = n &^ 3
		bnGradSums2Asm(acc, &g0[0], &g1[0], &x0[0], &x1[0], i, mean0, istd0, mean1, istd1)
	}
	bnGradSums2Go(acc, g0[i:], g1[i:], x0[i:], x1[i:], mean0, istd0, mean1, istd1)
}

func bnGradSums2Go(acc *[4]float64, g0, g1, x0, x1 []float32, mean0, istd0, mean1, istd1 float32) {
	sg0, sg1, sgx0, sgx1 := acc[0], acc[1], acc[2], acc[3]
	n := len(g0)
	g1, x0, x1 = g1[:n], x0[:n], x1[:n]
	for j, gf := range g0 {
		a, b := float64(gf), float64(g1[j])
		sg0 += a
		sgx0 += a * float64((x0[j]-mean0)*istd0)
		sg1 += b
		sgx1 += b * float64((x1[j]-mean1)*istd1)
	}
	acc[0], acc[1], acc[2], acc[3] = sg0, sg1, sgx0, sgx1
}
