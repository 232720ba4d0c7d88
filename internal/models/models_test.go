package models

import (
	"testing"

	"rowhammer/internal/nn"
	"rowhammer/internal/tensor"
)

func forwardShape(t *testing.T, m *nn.Model, batch int) {
	t.Helper()
	x := tensor.New(batch, m.InputShape[0], m.InputShape[1], m.InputShape[2])
	tensor.NewRNG(1).FillNormal(x, 0, 1)
	out := m.Forward(x, false)
	if len(out.Shape()) != 2 || out.Dim(0) != batch || out.Dim(1) != m.Classes {
		t.Fatalf("%s: output shape %v, want (%d,%d)", m.Arch, out.Shape(), batch, m.Classes)
	}
}

func TestBuildAllArchitectures(t *testing.T) {
	for _, arch := range Names() {
		arch := arch
		t.Run(arch, func(t *testing.T) {
			m, err := Build(Config{Arch: arch, Classes: 10, WidthMult: 0.25, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if m.NumParams() == 0 {
				t.Fatal("no parameters")
			}
			forwardShape(t, m, 2)
		})
	}
}

func TestBuildUnknownArch(t *testing.T) {
	if _, err := Build(Config{Arch: "lenet", Classes: 10}); err == nil {
		t.Fatal("expected error for unknown architecture")
	}
}

func TestBuildRejectsBadClasses(t *testing.T) {
	if _, err := Build(Config{Arch: "resnet20", Classes: 0}); err == nil {
		t.Fatal("expected error for zero classes")
	}
}

func TestResNetDepthValidation(t *testing.T) {
	if _, err := ResNetCIFAR(21, 10, 1, 1); err == nil {
		t.Fatal("expected depth validation error")
	}
	if _, err := ResNetBasic(19, 10, 1, 1); err == nil {
		t.Fatal("expected depth validation error")
	}
	if _, err := ResNetBottleneck(51, 10, 1, 1); err == nil {
		t.Fatal("expected depth validation error")
	}
	if _, err := VGG(13, 10, 1, 1); err == nil {
		t.Fatal("expected depth validation error")
	}
	if _, err := BinarizedResNetCIFAR(21, 10, 1, 1); err == nil {
		t.Fatal("expected depth validation error")
	}
}

// Parameter counts at full width must match the canonical architectures.
func TestResNet20FullWidthParamCount(t *testing.T) {
	m, err := ResNetCIFAR(20, 10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The canonical CIFAR ResNet-20 has ~0.27M parameters; the paper
	// reports 2.2M bits = 0.27M bytes for its 8-bit quantized copy.
	n := m.NumParams()
	if n < 260_000 || n > 280_000 {
		t.Fatalf("ResNet-20 has %d params, want ≈272k", n)
	}
}

func TestResNet32FullWidthParamCount(t *testing.T) {
	m, err := ResNetCIFAR(32, 10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumParams()
	// Canonical ResNet-32: ~0.46M params (paper: 3.7M bits ≈ 0.46M bytes).
	if n < 450_000 || n > 480_000 {
		t.Fatalf("ResNet-32 has %d params, want ≈466k", n)
	}
}

func TestResNet18FullWidthParamCount(t *testing.T) {
	m, err := ResNetBasic(18, 10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumParams()
	// CIFAR-adapted ResNet-18: ~11.2M params (paper: 88M bits ≈ 11M bytes).
	if n < 11_000_000 || n > 11_400_000 {
		t.Fatalf("ResNet-18 has %d params, want ≈11.2M", n)
	}
}

func TestParamOrderStableAcrossWidths(t *testing.T) {
	a, err := ResNetCIFAR(20, 10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ResNetCIFAR(20, 10, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param list lengths differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Name != pb[i].Name {
			t.Fatalf("param %d name differs: %s vs %s", i, pa[i].Name, pb[i].Name)
		}
	}
}

func TestModelTrainStepRuns(t *testing.T) {
	m, err := Build(Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 3, 32, 32)
	tensor.NewRNG(2).FillNormal(x, 0, 1)
	labels := []int{0, 1, 2, 3}
	out := m.Forward(x, true)
	loss, grad := nn.CrossEntropy(out, labels, 1)
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	m.ZeroGrad()
	m.Backward(grad)
	var nonzero bool
	for _, p := range m.Params() {
		if p.G.MaxAbs() > 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("backward produced all-zero gradients")
	}
}

func TestBinarizedForwardUsesSignWeights(t *testing.T) {
	rng := tensor.NewRNG(3)
	bc := NewBinConv2D("c", rng, 1, 1, 3, 1, 1)
	// Force known weights: mixed signs.
	w := bc.inner.Weight.W.Data()
	for i := range w {
		if i%2 == 0 {
			w[i] = 0.5
		} else {
			w[i] = -0.25
		}
	}
	x := tensor.New(1, 1, 3, 3)
	x.Fill(1)
	out := bc.Forward(x, false)
	// α = mean|w| = (5·0.5 + 4·0.25)/9 = 3.5/9. Center output tap sees
	// all nine weights: 5 positive − 4 negative = +1 effective sign sum.
	want := float32(3.5 / 9.0)
	if got := out.At(0, 0, 1, 1); got < want-1e-4 || got > want+1e-4 {
		t.Fatalf("binarized center tap = %v, want %v", got, want)
	}
	// Latent weights must be restored.
	if w[0] != 0.5 || w[1] != -0.25 {
		t.Fatal("latent weights not restored after forward")
	}
}

func TestBinarizedResNetTrains(t *testing.T) {
	m, err := Build(Config{Arch: "bin-resnet32", Classes: 10, WidthMult: 0.25, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	forwardShape(t, m, 2)
}
