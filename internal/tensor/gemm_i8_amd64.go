package tensor

// Runtime selection of the AVX2 int8 micro-kernel. The portable 2×4
// pure-Go kernel remains the fallback, sharing the CPUID probe with the
// float engine (gemm_amd64.go). The int8 kernel needs only AVX2 (for
// VPMADDWD/VPBROADCASTD on YMM), which cpuSupportsAVX2FMA implies.

//go:noescape
func gemmI8Kernel4x16Asm(kc2 int, ap, bp *int16, c *int32, ldc int)

//go:noescape
func packBPanelI8Asm(dst *int16, b *int8, ldb, npairs int)

func init() {
	if !cpuSupportsAVX2FMA() {
		return
	}
	gemmI8MR, gemmI8NR = 4, 16
	gemmI8Kernel = gemmI8KernelAVX2
	packBPanelFast = packBPanelI8Asm
}

// gemmI8KernelAVX2 adapts packed-panel slices to the assembly kernel's
// pointer ABI.
func gemmI8KernelAVX2(kc2 int, ap, bp []int16, c []int32, ldc int) {
	gemmI8Kernel4x16Asm(kc2, &ap[0], &bp[0], &c[0], ldc)
}
