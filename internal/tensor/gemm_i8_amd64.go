package tensor

// Runtime selection of the AVX2 int8 micro-kernel. The portable 2×4
// pure-Go kernel remains the fallback, sharing the CPUID probe with the
// float engine (gemm_amd64.go). The int8 kernel needs only AVX2 (for
// VPMADDWD/VPBROADCASTD on YMM), which cpuSupportsAVX2FMA implies.

//go:noescape
func gemmI8Kernel4x16Asm(kc2 int, ap, bp *int16, c *int32, ldc, acc int)

//go:noescape
func packBPanelI8Asm(dst *int16, b *int8, ldb, npairs int)

//go:noescape
func packConvPanelI8Asm(dst *int16, lo, hi *int8, offs *int32, npairs, stride int)

func init() {
	if !cpuSupportsAVX2FMA() {
		return
	}
	gemmI8MR, gemmI8NR = 4, 16
	gemmI8Kernel = gemmI8KernelAVX2
	packBPanelFast = packBPanelI8Asm
	packConvPanelFast = packConvPanelI8Asm
}

// gemmI8KernelAVX2 adapts packed-panel slices to the assembly kernel's
// pointer ABI.
func gemmI8KernelAVX2(kc2 int, ap, bp []int16, c []int32, ldc int, acc bool) {
	a := 0
	if acc {
		a = 1
	}
	gemmI8Kernel4x16Asm(kc2, &ap[0], &bp[0], &c[0], ldc, a)
}
