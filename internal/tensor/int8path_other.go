//go:build !amd64

package tensor

// Portable stand-ins for the AVX2 int8 data-path bodies. accelerated is
// never set off amd64, so the wrappers always take the Go twins; the
// stubs only satisfy the compiler.

func maxAbsAsm(src *float32, n int) float32 { panic("tensor: int8 path kernel without assembly") }

func quantizeRowsAsm(dst *int8, src *float32, rows, w, dstStride, srcStride int, inv float32) {
	panic("tensor: int8 path kernel without assembly")
}

func dequantAsm(dst *float32, src *int32, n int, mul, shift float32) {
	panic("tensor: int8 path kernel without assembly")
}

func dequantReLUAsm(dst *float32, src *int32, n int, mul, shift float32) {
	panic("tensor: int8 path kernel without assembly")
}

func addClampNegAsm(dst, a, b *float32, n int) {
	panic("tensor: int8 path kernel without assembly")
}
