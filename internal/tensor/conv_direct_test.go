package tensor

import "testing"

// convStages are the stride-1 3×3 stage convolutions of the width-0.25
// ResNet-20 and the direct products their gates take with the AVX2
// kernels: the 16-channel stage's weight gradient has outC > 8, so
// gemm runs it on the blocked path and it keeps im2col.
var convStages = []struct {
	c, hw             int
	fwd, data, weight bool
}{
	{4, 32, true, true, true},
	{8, 16, true, true, true},
	{16, 8, true, true, false},
}

func TestDirectConvGatesFollowGemmDispatch(t *testing.T) {
	if gemmAxpyB == nil || gemmDotABT == nil {
		t.Skip("no AVX2 kernels on this CPU")
	}
	for _, s := range convStages {
		d := NewDirectConv(s.c, s.c, s.hw, s.hw, 3, 3, 1, 1)
		if d == nil || d.Fwd != s.fwd || d.Data != s.data || d.Weight != s.weight {
			t.Fatalf("%d channels @%d²: plan %+v, want fwd %v data %v weight %v", s.c, s.hw, d, s.fwd, s.data, s.weight)
		}
		if NewDirectConv(s.c, s.c, s.hw, s.hw, 3, 3, 2, 1) != nil {
			t.Fatalf("%d channels @%d²: stride 2 planned a direct path", s.c, s.hw)
		}
		if NewDirectConv(s.c, s.c, s.hw, s.hw, 1, 1, 1, 0) != nil {
			t.Fatalf("%d channels @%d²: 1×1 kernel planned a direct path", s.c, s.hw)
		}
	}
}

// TestDirectConvFallsBackOnPortableKernels forces the portable kernel
// set a CPU without AVX2 selects, as TestGemmPortableKernelMatchesNaive
// does, and checks that every gate closes: the direct kernels mirror
// the AVX2 GEMM paths, so without those paths nothing may run direct.
func TestDirectConvFallsBackOnPortableKernels(t *testing.T) {
	mr, nr, mc, kern, dot, axpy := gemmMR, gemmNR, gemmMC, gemmKernel, gemmDotABT, gemmAxpyB
	defer func() { gemmMR, gemmNR, gemmMC, gemmKernel, gemmDotABT, gemmAxpyB = mr, nr, mc, kern, dot, axpy }()
	gemmMR, gemmNR, gemmMC, gemmKernel, gemmDotABT, gemmAxpyB = 2, 4, 64, gemmKernel2x4, nil, nil

	for _, s := range convStages {
		for _, oc := range []int{s.c, 2 * s.c} {
			if d := NewDirectConv(s.c, oc, s.hw, s.hw, 3, 3, 1, 1); d != nil {
				t.Fatalf("%d→%d channels @%d²: portable kernels planned %+v", s.c, oc, s.hw, d)
			}
		}
	}
}
