package tensor

// AVX2 bodies of the int8 data-path float kernels (int8path.go,
// int8path_amd64.s). Each processes n elements (w per row for
// quantizeRowsAsm), a positive multiple of 8; the exported wrappers run
// the portable twin over the rest.

//go:noescape
func maxAbsAsm(src *float32, n int) float32

//go:noescape
func quantizeRowsAsm(dst *int8, src *float32, rows, w, dstStride, srcStride int, inv float32)

//go:noescape
func dequantAsm(dst *float32, src *int32, n int, mul, shift float32)

//go:noescape
func dequantReLUAsm(dst *float32, src *int32, n int, mul, shift float32)

//go:noescape
func addClampNegAsm(dst, a, b *float32, n int)
