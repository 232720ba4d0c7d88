package tensor

// Runtime selection of the AVX2/FMA micro-kernel. The pure-Go 2×4
// kernel remains the fallback on CPUs without AVX2 (or when the OS has
// not enabled YMM state).

// cpuid and xgetbv0 are implemented in gemm_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

//go:noescape
func gemmKernel6x16Asm(kc int, ap, bp, c *float32, ldc int)

//go:noescape
func dotKernel1x4Asm(k16 int, a, b0, b1, b2, b3, dst *float32)

//go:noescape
func saxpyKernelAsm(n32 int, alpha float32, x, y *float32)

func init() {
	if !cpuSupportsAVX2FMA() {
		return
	}
	accelerated = true
	gemmMR, gemmNR = 6, 16
	gemmMC = 96 // 16 six-row panels per L2 block
	gemmKernel = gemmKernelAVX2
	gemmDotABT = gemmDotABTAVX2
	gemmAxpyB = gemmAxpyBAVX2
}

func cpuSupportsAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		cpuidFMA     = 1 << 12
		cpuidOSXSAVE = 1 << 27
		cpuidAVX     = 1 << 28
		want         = cpuidFMA | cpuidOSXSAVE | cpuidAVX
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&want != want {
		return false
	}
	// The OS must save/restore XMM and YMM state across context
	// switches before AVX may be used.
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// gemmKernelAVX2 adapts packed-panel slices to the assembly kernel's
// pointer ABI.
func gemmKernelAVX2(kc int, ap, bp, c []float32, ldc int) {
	gemmKernel6x16Asm(kc, &ap[0], &bp[0], &c[0], ldc)
}

// gemmDotABTAVX2 computes C = A·Bᵀ for the contiguous-k shape without
// packing either operand: row i of A and row j of B are both k-long
// contiguous vectors, and the assembly kernel produces four dot
// products per call. k tails past the 16-wide main loop and n tails
// past the 4-column groups run in scalar Go — their summation order is
// a fixed function of the shape, so results do not depend on worker
// count. C is fully overwritten.
func gemmDotABTAVX2(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32) {
	k16 := k &^ 15
	var dst [4]float32
	for i := 0; i < m; i++ {
		ar := a[i*lda : i*lda+k]
		ci := c[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*ldb : (j+0)*ldb+k]
			b1 := b[(j+1)*ldb : (j+1)*ldb+k]
			b2 := b[(j+2)*ldb : (j+2)*ldb+k]
			b3 := b[(j+3)*ldb : (j+3)*ldb+k]
			if k16 > 0 {
				dotKernel1x4Asm(k16, &ar[0], &b0[0], &b1[0], &b2[0], &b3[0], &dst[0])
			} else {
				dst[0], dst[1], dst[2], dst[3] = 0, 0, 0, 0
			}
			for p := k16; p < k; p++ {
				ap := ar[p]
				dst[0] += ap * b0[p]
				dst[1] += ap * b1[p]
				dst[2] += ap * b2[p]
				dst[3] += ap * b3[p]
			}
			ci[j], ci[j+1], ci[j+2], ci[j+3] = dst[0], dst[1], dst[2], dst[3]
		}
		for ; j < n; j++ {
			br := b[j*ldb : j*ldb+k]
			var s float32
			for p := 0; p < k; p++ {
				s += ar[p] * br[p]
			}
			ci[j] = s
		}
	}
}

// gemmAxpyBAVX2 computes C = op(A)·op(B) for the contiguous-n-row
// shape without packing: row i of C is accumulated as k broadcast-FMA
// (axpy) passes c[i,:] += a(i,p)·b[p,:]. A is read with scalar loads,
// so its strides are unconstrained. n tails past the 32-wide main loop
// run in scalar Go with the same p-major order. C is fully
// overwritten.
func gemmAxpyBAVX2(m, n, k int, a []float32, rsA, csA int, b []float32, ldb int, c []float32) {
	n32 := n &^ 31
	for i := 0; i < m; i++ {
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = 0
		}
		ab := i * rsA
		for p := 0; p < k; p++ {
			alpha := a[ab+p*csA]
			br := b[p*ldb : p*ldb+n]
			if n32 > 0 {
				saxpyKernelAsm(n32, alpha, &br[0], &ci[0])
			}
			for j := n32; j < n; j++ {
				ci[j] += alpha * br[j]
			}
		}
	}
}
