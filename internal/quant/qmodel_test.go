package quant

import (
	"sync"
	"testing"

	"rowhammer/internal/models"
	"rowhammer/internal/nn"
	"rowhammer/internal/tensor"
)

// qmodelLogitTol is the documented agreement bound between the int8
// engine and the fp32 reference: the max absolute logit difference must
// stay below this fraction of the largest fp32 logit magnitude. The
// engine quantizes weights (shared codes, exact) and activations
// (dynamic per-tensor max|x|/127), so the residual error is activation
// rounding accumulated over depth; across the eight registered
// architectures the measured worst case is well under this bound.
const qmodelLogitTol = 0.05

func fixedBatch(m *nn.Model, n int, seed int64) *tensor.Tensor {
	x := tensor.New(n, m.InputShape[0], m.InputShape[1], m.InputShape[2])
	tensor.NewRNG(seed).FillUniform(x, -1, 1)
	return x
}

func maxAbsLogit(d []float32) float32 {
	var m float32
	for _, v := range d {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// TestQModelMatchesFloatAllArchs is the golden agreement test: for every
// registered architecture the int8 engine must produce the same top-1
// predictions as the fp32 model on a fixed synthetic batch, with logits
// inside the documented tolerance.
func TestQModelMatchesFloatAllArchs(t *testing.T) {
	for _, arch := range models.Names() {
		arch := arch
		t.Run(arch, func(t *testing.T) {
			m, err := models.Build(models.Config{Arch: arch, Classes: 10, WidthMult: 0.25, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			q := NewQuantizer(m)
			qm := NewQModel(q)
			x := fixedBatch(m, 4, 11)

			ref := m.Forward(x, false)
			got := qm.Forward(x)
			rd, gd := ref.Data(), got.Data()
			if len(rd) != len(gd) {
				t.Fatalf("logit count %d, want %d", len(gd), len(rd))
			}
			tol := qmodelLogitTol * maxAbsLogit(rd)
			for i := range rd {
				d := rd[i] - gd[i]
				if d < 0 {
					d = -d
				}
				if d > tol {
					t.Fatalf("logit %d: int8 %v vs fp32 %v (|Δ|=%v > tol %v)", i, gd[i], rd[i], d, tol)
				}
			}
			// Top-1 must be identical whenever the fp32 decision margin
			// exceeds the quantization noise bound. Untrained deep nets
			// (notably resnet50 at random init) emit near-degenerate
			// logits, so a genuine tie — fp32 winner and int8 winner
			// within the logit tolerance of each other — is the one case
			// where argmax may legitimately differ.
			refPred := m.Predict(x)
			gotPred := qm.Predict(x)
			k := ref.Dim(1)
			for i := range refPred {
				if refPred[i] == gotPred[i] {
					continue
				}
				margin := rd[i*k+refPred[i]] - rd[i*k+gotPred[i]]
				if margin > tol {
					t.Fatalf("sample %d: int8 top-1 %d, fp32 top-1 %d (margin %v > tol %v)",
						i, gotPred[i], refPred[i], margin, tol)
				}
			}

			wantSafe := arch != "bin-resnet32" // binarized convs fall back to float layers
			if qm.ConcurrentSafe() != wantSafe {
				t.Fatalf("ConcurrentSafe = %v, want %v", qm.ConcurrentSafe(), wantSafe)
			}
		})
	}
}

// checkAgreesWithFloat holds the int8 engine's logits on x within the
// documented tolerance of the fp32 model's.
func checkAgreesWithFloat(t *testing.T, m *nn.Model, x *tensor.Tensor) {
	t.Helper()
	qm := NewQModel(NewQuantizer(m))
	ref := m.Forward(x, false)
	got := qm.Forward(x)
	rd, gd := ref.Data(), got.Data()
	tol := qmodelLogitTol * maxAbsLogit(rd)
	for i := range rd {
		d := rd[i] - gd[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			t.Fatalf("logit %d: int8 %v vs fp32 %v (tol %v)", i, gd[i], rd[i], tol)
		}
	}
}

// TestQModelFlatInput covers the 2-D (N, F) input path through the
// fused Linear ops.
func TestQModelFlatInput(t *testing.T) {
	x := tensor.New(6, 8)
	tensor.NewRNG(3).FillUniform(x, -1, 1)
	checkAgreesWithFloat(t, toyModel(31), x)
}

// TestQModelSpatialLinear covers a Linear on a spatial activation: the
// int8 engine packs the flatten order (c·h·w + s) straight from the
// conv output's planes, which no registered architecture reaches at
// CIFAR size.
func TestQModelSpatialLinear(t *testing.T) {
	rng := tensor.NewRNG(32)
	net := nn.NewSequential(
		nn.NewConv2D("conv", rng, 3, 4, 3, 1, 1, true),
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewLinear("fc", rng, 4*5*3, 6),
	)
	m := nn.NewModel("toy-spatial", net, 6, [3]int{3, 5, 3})
	x := tensor.New(7, 3, 5, 3)
	tensor.NewRNG(4).FillUniform(x, -1, 1)
	checkAgreesWithFloat(t, m, x)
}

// TestQModelFlipBitInvalidation exercises the incremental path: a
// FlipBit must change the quantized forward exactly as a fresh engine
// would see it, and flipping back must restore the original logits
// bit-for-bit (int32 accumulation is exact, so identical codes give
// identical logits).
func TestQModelFlipBitInvalidation(t *testing.T) {
	m, err := models.Build(models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuantizer(m)
	qm := NewQModel(q)
	x := fixedBatch(m, 3, 17)
	before := append([]float32(nil), qm.Forward(x).Data()...)

	// Flip the sign bit of a first-layer weight — large enough to move
	// the logits.
	q.FlipBit(0, 7)
	after := qm.Forward(x).Data()
	fresh := NewQModel(q).Forward(x).Data()
	changed := false
	for i := range after {
		if after[i] != fresh[i] {
			t.Fatalf("logit %d: incremental %v vs fresh %v", i, after[i], fresh[i])
		}
		if after[i] != before[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("sign-bit flip did not move any logit")
	}

	q.FlipBit(0, 7)
	restored := qm.Forward(x).Data()
	for i := range restored {
		if restored[i] != before[i] {
			t.Fatalf("logit %d not restored after double flip: %v vs %v", i, restored[i], before[i])
		}
	}
}

// TestQModelLoadWeightFileBytes runs the paper's deployment loop on the
// quantized engine: serialize the weight file, corrupt one bit as the
// online attack would, reload, and check the engine tracks the change
// and round-trips back.
func TestQModelLoadWeightFileBytes(t *testing.T) {
	m, err := models.Build(models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuantizer(m)
	qm := NewQModel(q)
	x := fixedBatch(m, 3, 19)
	before := append([]float32(nil), qm.Forward(x).Data()...)

	file := append([]byte(nil), q.WeightFileBytes()...)
	corrupt := append([]byte(nil), file...)
	corrupt[12] ^= 0x80
	q.LoadWeightFileBytes(corrupt)
	if q.Code(12) == int8(file[12]) {
		t.Fatal("corruption did not reach codes")
	}
	after := qm.Forward(x).Data()
	fresh := NewQModel(q).Forward(x).Data()
	for i := range after {
		if after[i] != fresh[i] {
			t.Fatalf("logit %d: incremental %v vs fresh %v after reload", i, after[i], fresh[i])
		}
	}

	q.LoadWeightFileBytes(file)
	restored := qm.Forward(x).Data()
	for i := range restored {
		if restored[i] != before[i] {
			t.Fatalf("logit %d not restored after reloading the clean file", i)
		}
	}
}

// TestQModelConcurrentForward hammers a ConcurrentSafe engine from many
// goroutines (run under -race) and checks every result matches the
// sequential forward exactly.
func TestQModelConcurrentForward(t *testing.T) {
	m, err := models.Build(models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuantizer(m)
	qm := NewQModel(q)
	if !qm.ConcurrentSafe() {
		t.Fatal("resnet20 plan must be concurrency-safe")
	}
	x := fixedBatch(m, 4, 23)
	want := append([]float32(nil), qm.Forward(x).Data()...)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				got := qm.Forward(x).Data()
				for i := range got {
					if got[i] != want[i] {
						errs <- "concurrent forward diverged"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func benchForward(b *testing.B, quantized bool) { benchForwardBatch(b, quantized, 32) }

func benchForwardBatch(b *testing.B, quantized bool, batch int) {
	m, err := models.Build(models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	q := NewQuantizer(m)
	x := fixedBatch(m, batch, 29)
	var fwd func() *tensor.Tensor
	if quantized {
		qm := NewQModel(q)
		fwd = func() *tensor.Tensor { return qm.Forward(x) }
	} else {
		fwd = func() *tensor.Tensor { return m.Forward(x, false) }
	}
	fwd() // warm caches and pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fwd()
	}
}

// BenchmarkQuantForward and BenchmarkFloatForward compare one batch-32
// resnet20 forward on the int8 engine vs the fp32 graph.
func BenchmarkQuantForward(b *testing.B) { benchForward(b, true) }
func BenchmarkFloatForward(b *testing.B) { benchForward(b, false) }

// BenchmarkQuantForwardBatch1 and BenchmarkQuantForwardBatch64 time the
// int8 engine at the serving batch and at the evaluator's batch.
func BenchmarkQuantForwardBatch1(b *testing.B)  { benchForwardBatch(b, true, 1) }
func BenchmarkQuantForwardBatch64(b *testing.B) { benchForwardBatch(b, true, 64) }

// The ST variants pin every layer of parallelism to one thread, so the
// ratio reflects pure per-core engine speed (the paper's acceptance
// criterion), not scheduler luck.
func BenchmarkQuantForwardST(b *testing.B) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	defer nn.SetBatchWorkers(nn.SetBatchWorkers(1))
	benchForward(b, true)
}

func BenchmarkFloatForwardST(b *testing.B) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	defer nn.SetBatchWorkers(nn.SetBatchWorkers(1))
	benchForward(b, false)
}
