package tensor

// accelerated records whether the AVX2 kernel set is in use: init sets
// it on capable amd64 CPUs (gemm_amd64.go), ForcePortableKernels clears
// it. The elementwise kernels read it on every call.
var accelerated bool

// AcceleratedKernels reports whether the AVX2 kernel set (float and
// int8 GEMM, byte scans, elementwise kernels) is in use. Results that
// depend on GEMM summation order — trained weights, gradients — are
// reproducible only within one kernel set.
func AcceleratedKernels() bool { return accelerated }

// ForcePortableKernels switches every kernel that has an AVX2 version
// to its portable Go twin, as on a CPU without AVX2, and returns a
// function that restores the previous selection. It is a test seam:
// calling it or the restore function while kernels run is a data race.
func ForcePortableKernels() (restore func()) {
	acc := accelerated
	mr, nr, mc, kern, dot, axpy := gemmMR, gemmNR, gemmMC, gemmKernel, gemmDotABT, gemmAxpyB
	i8mr, i8nr, i8kern, packB, packConv := gemmI8MR, gemmI8NR, gemmI8Kernel, packBPanelFast, packConvPanelFast
	index, fill := indexMismatchImpl, fillBytesImpl
	accelerated = false
	gemmMR, gemmNR, gemmMC, gemmKernel, gemmDotABT, gemmAxpyB = 2, 4, 64, gemmKernel2x4, nil, nil
	gemmI8MR, gemmI8NR, gemmI8Kernel, packBPanelFast, packConvPanelFast = 2, 4, gemmI8Kernel2x4, nil, nil
	indexMismatchImpl, fillBytesImpl = indexMismatchGo, fillBytesGo
	return func() {
		accelerated = acc
		gemmMR, gemmNR, gemmMC, gemmKernel, gemmDotABT, gemmAxpyB = mr, nr, mc, kern, dot, axpy
		gemmI8MR, gemmI8NR, gemmI8Kernel, packBPanelFast, packConvPanelFast = i8mr, i8nr, i8kern, packB, packConv
		indexMismatchImpl, fillBytesImpl = index, fill
	}
}
