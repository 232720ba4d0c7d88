package nn

import (
	"testing"

	"rowhammer/internal/tensor"
)

// cloneTestModel exercises every layer type this package defines:
// conv (with and without bias), batch norm, ReLU, max pool, global
// average pool, flatten-free residual blocks (identity and downsample
// shortcuts), a tap, and the linear head.
func cloneTestModel(seed int64) *Model {
	rng := tensor.NewRNG(seed)
	main := NewSequential(
		NewConv2D("r.c1", rng, 4, 4, 3, 1, 1, false),
		NewBatchNorm2D("r.bn1", 4),
		NewReLU(),
		NewConv2D("r.c2", rng, 4, 4, 3, 1, 1, false),
		NewBatchNorm2D("r.bn2", 4),
	)
	down := NewSequential(
		NewConv2D("d.c1", rng, 4, 8, 3, 2, 1, false),
		NewBatchNorm2D("d.bn1", 8),
		NewReLU(),
		NewConv2D("d.c2", rng, 8, 8, 3, 1, 1, false),
		NewBatchNorm2D("d.bn2", 8),
	)
	short := NewSequential(
		NewConv2D("d.sc", rng, 4, 8, 1, 2, 0, false),
		NewBatchNorm2D("d.sbn", 8),
	)
	net := NewSequential(
		NewConv2D("stem", rng, 2, 4, 3, 1, 1, true),
		NewBatchNorm2D("bn", 4),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewResidual(main, nil),
		NewResidual(down, short),
		NewTap(),
		NewGlobalAvgPool(),
		NewLinear("fc", rng, 8, 3),
	)
	return NewModel("clone-test", net, 3, [3]int{2, 8, 8})
}

func TestModelCloneMatchesForward(t *testing.T) {
	m := cloneTestModel(31)
	// Give batch-norm running stats non-default values before cloning.
	rng := tensor.NewRNG(32)
	warm := tensor.New(4, 2, 8, 8)
	rng.FillNormal(warm, 0.5, 1.5)
	for i := 0; i < 5; i++ {
		m.Forward(warm, true)
	}
	c := m.Clone()

	pa, pb := m.Params(), c.Params()
	if len(pa) != len(pb) {
		t.Fatalf("clone has %d params, want %d", len(pb), len(pa))
	}
	for i := range pa {
		if pa[i].Name != pb[i].Name {
			t.Fatalf("param %d name %q != %q", i, pb[i].Name, pa[i].Name)
		}
		if pa[i].W == pb[i].W || pa[i].G == pb[i].G {
			t.Fatalf("param %q shares storage with the original", pa[i].Name)
		}
	}

	x := tensor.New(3, 2, 8, 8)
	rng.FillNormal(x, 0, 1)
	outA := m.Forward(x, false)
	outB := c.Forward(x, false)
	for i := range outA.Data() {
		if outA.Data()[i] != outB.Data()[i] {
			t.Fatalf("clone forward differs at %d: %v vs %v", i, outA.Data()[i], outB.Data()[i])
		}
	}
}

func TestModelCloneIsIndependent(t *testing.T) {
	m := cloneTestModel(33)
	c := m.Clone()
	rng := tensor.NewRNG(34)
	x := tensor.New(2, 2, 8, 8)
	rng.FillNormal(x, 0, 1)
	before := c.Forward(x, false).Clone()

	// Mutate the original's weights and run a training step on it; the
	// clone must be unaffected.
	for _, p := range m.Params() {
		p.W.Data()[0] += 10
	}
	m.ZeroGrad()
	out := m.Forward(x, true)
	_, grad := CrossEntropy(out, []int{0, 1}, 1)
	m.Backward(grad)

	after := c.Forward(x, false)
	for i := range before.Data() {
		if before.Data()[i] != after.Data()[i] {
			t.Fatal("mutating the original changed the clone's forward")
		}
	}
	for _, p := range c.Params() {
		for _, g := range p.G.Data() {
			if g != 0 {
				t.Fatal("original backward leaked gradients into the clone")
			}
		}
	}
}

func TestCloneCopiesBatchNormState(t *testing.T) {
	bn := NewBatchNorm2D("bn", 3)
	bn.RunningMean[1] = 0.7
	bn.RunningVar[2] = 4.2
	bn.Frozen = true
	c := bn.CloneLayer().(*BatchNorm2D)
	if !c.Frozen {
		t.Fatal("clone lost the Frozen flag")
	}
	if c.RunningMean[1] != 0.7 || c.RunningVar[2] != 4.2 {
		t.Fatal("clone lost running statistics")
	}
	c.RunningMean[1] = -1
	if bn.RunningMean[1] != 0.7 {
		t.Fatal("clone shares running-stat storage with the original")
	}
}
