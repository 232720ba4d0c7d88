package nn

import (
	"math"
	"testing"

	"rowhammer/internal/tensor"
)

// numericalGrad estimates a derivative via central differences around
// the value pointed to by v. It reports ok=false when the loss surface
// has a kink at this point (e.g. a max-pool argmax flip), where finite
// differences are meaningless.
func numericalGrad(f func() float32, v *float32) (grad float32, ok bool) {
	const h = 1e-3
	orig := *v
	f0 := f()
	*v = orig + h
	lp := f()
	*v = orig - h
	lm := f()
	*v = orig
	grad = (lp - lm) / (2 * h)
	// Kink detector: for a smooth function the forward and backward
	// one-sided slopes agree to O(h); at a kink they differ by O(1).
	fwd := (lp - f0) / h
	bwd := (f0 - lm) / h
	denom := math.Abs(float64(fwd)) + math.Abs(float64(bwd)) + 1e-3
	ok = math.Abs(float64(fwd-bwd))/denom < 0.1
	return grad, ok
}

// lossOf runs a forward pass and the cross-entropy loss.
func lossOf(l Layer, x *tensor.Tensor, labels []int) float32 {
	out := l.Forward(x, true)
	n := out.Dim(0)
	flat := out.Reshape(n, out.Len()/n)
	loss, _ := CrossEntropy(flat, labels, 1)
	return loss
}

// backprop computes analytic parameter gradients for the same loss.
func backprop(l Layer, x *tensor.Tensor, labels []int) *tensor.Tensor {
	for _, p := range l.Params() {
		p.G.Zero()
	}
	out := l.Forward(x, true)
	n := out.Dim(0)
	flat := out.Reshape(n, out.Len()/n)
	_, grad := CrossEntropy(flat, labels, 1)
	return l.Backward(grad.Reshape(out.Shape()...))
}

func checkParamGrads(t *testing.T, l Layer, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	gradIn := backprop(l, x, labels)
	checked := 0
	for _, p := range l.Params() {
		n := p.W.Len()
		stride := 1
		if n > 24 {
			stride = n / 24
		}
		for idx := 0; idx < n; idx += stride {
			want, ok := numericalGrad(func() float32 { return lossOf(l, x, labels) }, &p.W.Data()[idx])
			if !ok {
				continue // finite differences unreliable at a kink
			}
			checked++
			got := p.G.Data()[idx]
			if math.Abs(float64(got-want)) > tol*(1+math.Abs(float64(want))) {
				t.Fatalf("param %s[%d]: analytic %v vs numeric %v", p.Name, idx, got, want)
			}
		}
	}
	// Input gradient check on a few entries.
	n := x.Len()
	stride := 1
	if n > 12 {
		stride = n / 12
	}
	for idx := 0; idx < n; idx += stride {
		want, ok := numericalGrad(func() float32 { return lossOf(l, x, labels) }, &x.Data()[idx])
		if !ok {
			continue
		}
		checked++
		got := gradIn.Data()[idx]
		if math.Abs(float64(got-want)) > tol*(1+math.Abs(float64(want))) {
			t.Fatalf("input grad[%d]: analytic %v vs numeric %v", idx, got, want)
		}
	}
	if checked == 0 {
		t.Fatal("gradient check skipped every index")
	}
}

func TestLinearGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("fc", rng, 6, 4)
	x := tensor.New(3, 6)
	rng.FillNormal(x, 0, 1)
	checkParamGrads(t, l, x, []int{0, 2, 3}, 2e-2)
}

func TestConvGradients(t *testing.T) {
	rng := tensor.NewRNG(2)
	net := NewSequential(
		NewConv2D("conv", rng, 2, 3, 3, 1, 1, true),
		NewFlatten(),
		NewLinear("fc", rng, 3*5*5, 4),
	)
	x := tensor.New(2, 2, 5, 5)
	rng.FillNormal(x, 0, 1)
	checkParamGrads(t, net, x, []int{1, 3}, 3e-2)
}

func TestConvStride2Gradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := NewSequential(
		NewConv2D("conv", rng, 2, 2, 3, 2, 1, false),
		NewFlatten(),
		NewLinear("fc", rng, 2*3*3, 3),
	)
	x := tensor.New(2, 2, 6, 6)
	rng.FillNormal(x, 0, 1)
	checkParamGrads(t, net, x, []int{0, 2}, 3e-2)
}

func TestBatchNormGradients(t *testing.T) {
	rng := tensor.NewRNG(4)
	net := NewSequential(
		NewBatchNorm2D("bn", 3),
		NewFlatten(),
		NewLinear("fc", rng, 3*4*4, 3),
	)
	x := tensor.New(4, 3, 4, 4)
	rng.FillNormal(x, 1, 2)
	checkParamGrads(t, net, x, []int{0, 1, 2, 0}, 5e-2)
}

func TestReLUGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := NewSequential(
		NewLinear("fc1", rng, 5, 8),
		NewReLU(),
		NewLinear("fc2", rng, 8, 3),
	)
	x := tensor.New(3, 5)
	rng.FillNormal(x, 0, 1)
	checkParamGrads(t, net, x, []int{0, 1, 2}, 2e-2)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := tensor.NewRNG(6)
	net := NewSequential(
		NewConv2D("conv", rng, 1, 2, 3, 1, 1, true),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewLinear("fc", rng, 2*3*3, 3),
	)
	x := tensor.New(2, 1, 6, 6)
	rng.FillNormal(x, 0, 1)
	checkParamGrads(t, net, x, []int{0, 2}, 3e-2)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := tensor.NewRNG(7)
	net := NewSequential(
		NewConv2D("conv", rng, 2, 3, 3, 1, 1, false),
		NewGlobalAvgPool(),
		NewLinear("fc", rng, 3, 4),
	)
	x := tensor.New(2, 2, 5, 5)
	rng.FillNormal(x, 0, 1)
	checkParamGrads(t, net, x, []int{0, 3}, 3e-2)
}

func TestResidualIdentityGradients(t *testing.T) {
	rng := tensor.NewRNG(8)
	main := NewSequential(
		NewConv2D("c1", rng, 2, 2, 3, 1, 1, false),
		NewBatchNorm2D("bn1", 2),
		NewReLU(),
		NewConv2D("c2", rng, 2, 2, 3, 1, 1, false),
		NewBatchNorm2D("bn2", 2),
	)
	net := NewSequential(
		NewResidual(main, nil),
		NewGlobalAvgPool(),
		NewLinear("fc", rng, 2, 3),
	)
	x := tensor.New(3, 2, 4, 4)
	rng.FillNormal(x, 0, 1)
	checkParamGrads(t, net, x, []int{0, 1, 2}, 6e-2)
}

func TestResidualDownsampleGradients(t *testing.T) {
	rng := tensor.NewRNG(9)
	main := NewSequential(
		NewConv2D("c1", rng, 2, 4, 3, 2, 1, false),
		NewBatchNorm2D("bn1", 4),
		NewReLU(),
		NewConv2D("c2", rng, 4, 4, 3, 1, 1, false),
		NewBatchNorm2D("bn2", 4),
	)
	short := NewSequential(
		NewConv2D("sc", rng, 2, 4, 1, 2, 0, false),
		NewBatchNorm2D("sbn", 4),
	)
	net := NewSequential(
		NewResidual(main, short),
		NewGlobalAvgPool(),
		NewLinear("fc", rng, 4, 3),
	)
	x := tensor.New(3, 2, 4, 4)
	rng.FillNormal(x, 0, 1)
	checkParamGrads(t, net, x, []int{0, 1, 2}, 6e-2)
}

func TestCrossEntropyKnownValue(t *testing.T) {
	logits := tensor.FromSlice([]float32{0, 0}, 1, 2)
	loss, grad := CrossEntropy(logits, []int{0}, 1)
	if math.Abs(float64(loss)-math.Log(2)) > 1e-5 {
		t.Fatalf("loss = %v, want ln2", loss)
	}
	if math.Abs(float64(grad.At(0, 0))+0.5) > 1e-5 || math.Abs(float64(grad.At(0, 1))-0.5) > 1e-5 {
		t.Fatalf("grad = %v", grad.Data())
	}
}

func TestCrossEntropyWeightScales(t *testing.T) {
	rng := tensor.NewRNG(11)
	logits := tensor.New(3, 4)
	rng.FillNormal(logits, 0, 1)
	labels := []int{1, 2, 0}
	l1, g1 := CrossEntropy(logits, labels, 1)
	l2, g2 := CrossEntropy(logits, labels, 0.25)
	if math.Abs(float64(l1*0.25-l2)) > 1e-5 {
		t.Fatalf("weighted loss %v vs %v", l1*0.25, l2)
	}
	for i := range g1.Data() {
		if math.Abs(float64(g1.Data()[i]*0.25-g2.Data()[i])) > 1e-6 {
			t.Fatal("weighted grads do not scale")
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 0, 0,
		0, 5, 0,
		0, 0, 2,
	}, 3, 3)
	if got := Accuracy(logits, []int{0, 1, 0}); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("Accuracy = %v", got)
	}
}

func TestSGDStepMovesDownhill(t *testing.T) {
	rng := tensor.NewRNG(12)
	net := NewSequential(NewLinear("fc", rng, 4, 3))
	m := NewModel("toy", net, 3, [3]int{1, 2, 2})
	x := tensor.New(8, 4)
	rng.FillNormal(x, 0, 1)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1}
	opt := NewSGD(m.Params(), 0.1, 0.9, 0)
	first := lossOf(net, x, labels)
	loss := first
	for i := 0; i < 30; i++ {
		m.ZeroGrad()
		out := m.Forward(x, true)
		var grad *tensor.Tensor
		loss, grad = CrossEntropy(out, labels, 1)
		m.Backward(grad)
		opt.Step()
	}
	if loss >= first {
		t.Fatalf("SGD did not reduce loss: %v -> %v", first, loss)
	}
}

func TestModelFlattenLoadRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(14)
	net := NewSequential(
		NewConv2D("conv", rng, 1, 2, 3, 1, 1, true),
		NewFlatten(),
		NewLinear("fc", rng, 2*4*4, 3),
	)
	m := NewModel("toy", net, 3, [3]int{1, 4, 4})
	flat := m.FlattenParams()
	if len(flat) != m.NumParams() {
		t.Fatalf("flat len %d != %d", len(flat), m.NumParams())
	}
	flat[0] = 123
	if err := m.LoadFlatParams(flat); err != nil {
		t.Fatal(err)
	}
	if m.Params()[0].W.Data()[0] != 123 {
		t.Fatal("LoadFlatParams did not write through")
	}
	if err := m.LoadFlatParams(flat[:len(flat)-1]); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := tensor.NewRNG(15)
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.New(8, 2, 3, 3)
	rng.FillNormal(x, 5, 2)
	for i := 0; i < 50; i++ {
		bn.Forward(x, true)
	}
	out := bn.Forward(x, false)
	// After convergence of running stats, eval output should be roughly
	// normalized: near zero mean.
	var s float64
	for _, v := range out.Data() {
		s += float64(v)
	}
	mean := s / float64(out.Len())
	if math.Abs(mean) > 0.2 {
		t.Fatalf("eval batchnorm mean = %v, want ~0", mean)
	}
}

func TestBatchNormParamsExcludeRunningStats(t *testing.T) {
	bn := NewBatchNorm2D("bn", 4)
	if got := len(bn.Params()); got != 2 {
		t.Fatalf("BatchNorm exposes %d params, want 2 (gamma, beta)", got)
	}
}

func TestSequentialParamOrderIsDeterministic(t *testing.T) {
	rng := tensor.NewRNG(16)
	build := func() *Model {
		r := tensor.NewRNG(99)
		net := NewSequential(
			NewConv2D("conv1", r, 1, 2, 3, 1, 1, false),
			NewBatchNorm2D("bn1", 2),
			NewReLU(),
			NewFlatten(),
			NewLinear("fc", r, 2*4*4, 3),
		)
		return NewModel("toy", net, 3, [3]int{1, 4, 4})
	}
	_ = rng
	a, b := build(), build()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatal("param counts differ")
	}
	for i := range pa {
		if pa[i].Name != pb[i].Name {
			t.Fatalf("param order differs at %d: %s vs %s", i, pa[i].Name, pb[i].Name)
		}
	}
}

func TestFrozenBatchNormGradients(t *testing.T) {
	rng := tensor.NewRNG(17)
	bn := NewBatchNorm2D("bn", 3)
	// Give the running stats non-trivial values first.
	warm := tensor.New(6, 3, 4, 4)
	rng.FillNormal(warm, 2, 1.5)
	for i := 0; i < 30; i++ {
		bn.Forward(warm, true)
	}
	bn.Frozen = true
	net := NewSequential(
		bn,
		NewFlatten(),
		NewLinear("fc", rng, 3*4*4, 3),
	)
	x := tensor.New(4, 3, 4, 4)
	rng.FillNormal(x, 2, 1.5)
	checkParamGrads(t, net, x, []int{0, 1, 2, 0}, 5e-2)
}

func TestFrozenBatchNormDoesNotDriftStats(t *testing.T) {
	rng := tensor.NewRNG(18)
	bn := NewBatchNorm2D("bn", 2)
	bn.Frozen = true
	before := append([]float32(nil), bn.RunningMean...)
	x := tensor.New(4, 2, 3, 3)
	rng.FillNormal(x, 7, 2)
	bn.Forward(x, true)
	for i := range before {
		if bn.RunningMean[i] != before[i] {
			t.Fatal("frozen BN must not update running stats")
		}
	}
}

func TestFrozenBatchNormMatchesEvalForward(t *testing.T) {
	rng := tensor.NewRNG(19)
	bn := NewBatchNorm2D("bn", 2)
	warm := tensor.New(6, 2, 3, 3)
	rng.FillNormal(warm, 1, 2)
	for i := 0; i < 20; i++ {
		bn.Forward(warm, true)
	}
	bn.Frozen = true
	x := tensor.New(3, 2, 3, 3)
	rng.FillNormal(x, 1, 2)
	frozenOut := bn.Forward(x, true)
	evalOut := bn.Forward(x, false)
	for i := range frozenOut.Data() {
		d := frozenOut.Data()[i] - evalOut.Data()[i]
		if d > 1e-5 || d < -1e-5 {
			t.Fatal("frozen training forward must equal eval forward")
		}
	}
}

func TestWalkVisitsAllLayers(t *testing.T) {
	rng := tensor.NewRNG(20)
	main := NewSequential(
		NewConv2D("c1", rng, 2, 2, 3, 1, 1, false),
		NewBatchNorm2D("bn1", 2),
	)
	short := NewSequential(NewConv2D("sc", rng, 2, 2, 1, 1, 0, false))
	net := NewSequential(NewResidual(main, short), NewReLU())
	count := 0
	bns := 0
	Walk(net, func(l Layer) {
		count++
		if _, ok := l.(*BatchNorm2D); ok {
			bns++
		}
	})
	// net, residual, main-seq, c1, bn1, short-seq, sc, relu = 8.
	if count != 8 {
		t.Fatalf("Walk visited %d layers, want 8", count)
	}
	if bns != 1 {
		t.Fatalf("found %d batchnorms, want 1", bns)
	}
	FreezeBatchNorm(net)
	Walk(net, func(l Layer) {
		if bn, ok := l.(*BatchNorm2D); ok && !bn.Frozen {
			t.Fatal("FreezeBatchNorm missed a layer")
		}
	})
}
