//go:build !amd64

package tensor

// Portable stand-ins for the direct-convolution kernels. convDirectAsm
// is false, so NewDirectConv returns nil and conv layers keep the
// im2col + GEMM lowering; the stubs only satisfy the compiler.

const convDirectAsm = false

func convFwdTileAsm(taps int, offs *int, w0, w1, s0, s1, s2, s3, d0, d1 *float32) {
	panic("tensor: direct conv kernel without assembly")
}

func convBwdData32Asm(taps, nq int, tab *int, gp *float32, gq int, mask *uint32, w0, d0 *float32) {
	panic("tensor: direct conv kernel without assembly")
}

func convBwdData16Asm(taps, nq int, tab *int, gp *float32, gq int, mask *uint32, w0, w1, d0, d1 *float32) {
	panic("tensor: direct conv kernel without assembly")
}

func convBwdData8Asm(taps, nq int, tab *int, gp *float32, gq int, mask *uint32, w0, w1, w2, w3, d0, d1, d2, d3 *float32) {
	panic("tensor: direct conv kernel without assembly")
}

func convDot1x4Asm(rows, blocks, skip int, a, b0, b1, b2, b3, dst *float32) {
	panic("tensor: direct conv kernel without assembly")
}
