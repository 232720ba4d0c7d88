package tensor

// Runtime selection of the AVX2 byte kernels. This init runs before
// gemm_amd64.go's (file order), so it probes CPUID itself instead of
// reading accelerated.

//go:noescape
func indexMismatchAsm(p *byte, n int, v byte) int

//go:noescape
func fillBytesAsm(p *byte, n int, v byte)

func init() {
	if !cpuSupportsAVX2FMA() {
		return
	}
	indexMismatchImpl = indexMismatchAVX2
	fillBytesImpl = fillBytesAVX2
}

func indexMismatchAVX2(b []byte, v byte) int {
	return indexMismatchAsm(&b[0], len(b), v)
}

func fillBytesAVX2(b []byte, v byte) {
	fillBytesAsm(&b[0], len(b), v)
}
