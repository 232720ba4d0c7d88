package tensor

// AVX2 bodies of the elementwise kernels (elementwise.go,
// elementwise_amd64.s). Each processes n elements, a positive multiple
// of 8; the exported wrappers run the portable twin over the rest.

//go:noescape
func reluAsm(dst, src *float32, n int)

//go:noescape
func reluBackwardAsm(grad, out *float32, n int)

//go:noescape
func addReLUAsm(dst, a, b *float32, n int)

//go:noescape
func axpyAsm(dst, src *float32, n int, s float32)

//go:noescape
func bnAffineAsm(dst, src *float32, n int, mean, istd, gamma, beta float32)

//go:noescape
func scaleAsm(dst, src *float32, n int, s float32)

//go:noescape
func bnBackwardAsm(dst, dy, x *float32, n int, mean, istd, meanG, meanGX, coef float32)

//go:noescape
func bnStatSums2Asm(acc *[4]float64, r0, r1 *float32, n int)

//go:noescape
func bnGradSums2Asm(acc *[4]float64, g0, g1, x0, x1 *float32, n int, mean0, istd0, mean1, istd1 float32)
