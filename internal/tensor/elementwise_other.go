//go:build !amd64

package tensor

// Portable stand-ins for the AVX2 elementwise bodies. accelerated is
// never set off amd64, so the wrappers always take the Go twins; the
// stubs only satisfy the compiler.

func reluAsm(dst, src *float32, n int) { panic("tensor: elementwise kernel without assembly") }

func reluBackwardAsm(grad, out *float32, n int) {
	panic("tensor: elementwise kernel without assembly")
}

func addReLUAsm(dst, a, b *float32, n int) { panic("tensor: elementwise kernel without assembly") }

func axpyAsm(dst, src *float32, n int, s float32) {
	panic("tensor: elementwise kernel without assembly")
}

func bnAffineAsm(dst, src *float32, n int, mean, istd, gamma, beta float32) {
	panic("tensor: elementwise kernel without assembly")
}

func scaleAsm(dst, src *float32, n int, s float32) {
	panic("tensor: elementwise kernel without assembly")
}

func bnBackwardAsm(dst, dy, x *float32, n int, mean, istd, meanG, meanGX, coef float32) {
	panic("tensor: elementwise kernel without assembly")
}

func bnStatSums2Asm(acc *[4]float64, r0, r1 *float32, n int) {
	panic("tensor: elementwise kernel without assembly")
}

func bnGradSums2Asm(acc *[4]float64, g0, g1, x0, x1 *float32, n int, mean0, istd0, mean1, istd1 float32) {
	panic("tensor: elementwise kernel without assembly")
}
