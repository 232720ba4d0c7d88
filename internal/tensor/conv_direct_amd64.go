package tensor

// AVX2/FMA kernels of the direct stride-1 convolution (conv_direct.go,
// conv_direct_amd64.s). They run only where a DirectConv gate passed,
// and every gate requires the AVX2 GEMM kernels gemm_amd64.go selects.

const convDirectAsm = true

//go:noescape
func convFwdTileAsm(taps int, offs *int, w0, w1, s0, s1, s2, s3, d0, d1 *float32)

//go:noescape
func convBwdData32Asm(taps, nq int, tab *int, gp *float32, gq int, mask *uint32, w0, d0 *float32)

//go:noescape
func convBwdData16Asm(taps, nq int, tab *int, gp *float32, gq int, mask *uint32, w0, w1, d0, d1 *float32)

//go:noescape
func convBwdData8Asm(taps, nq int, tab *int, gp *float32, gq int, mask *uint32, w0, w1, w2, w3, d0, d1, d2, d3 *float32)

//go:noescape
func convDot1x4Asm(rows, blocks, skip int, a, b0, b1, b2, b3, dst *float32)
