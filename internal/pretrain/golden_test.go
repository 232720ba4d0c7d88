package pretrain

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rowhammer/internal/data"
	"rowhammer/internal/models"
	"rowhammer/internal/nn"
	"rowhammer/internal/quant"
	"rowhammer/internal/tensor"
)

// updateGolden rewrites testdata/golden/digests.txt from the current
// code. Every regeneration needs a CHANGES.md line saying why the
// numbers moved.
var updateGolden = flag.Bool("update", false, "rewrite the golden digests in testdata/golden")

// goldenFile holds one "kernelset name sha256" line per digest. The
// kernel set is part of the key because GEMM summation order — and so
// every trained weight and gradient — differs between the AVX2 and the
// portable kernels.
var goldenFile = filepath.Join("..", "..", "testdata", "golden", "digests.txt")

func kernelSet() string {
	if tensor.AcceleratedKernels() {
		return "avx2"
	}
	return "portable"
}

// digester hashes float32 bit patterns, so a NaN payload or a signed
// zero that moves changes the digest.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) floats(v []float32) {
	var b [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		d.h.Write(b[:])
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestModel hashes every parameter in weight-file order, then every
// batch norm's running statistics in graph order.
func digestModel(d *digester, m *nn.Model) {
	for _, p := range m.Params() {
		d.floats(p.W.Data())
	}
	nn.Walk(m.Root, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			d.floats(bn.RunningMean)
			d.floats(bn.RunningVar)
		}
	})
}

func digestGrads(d *digester, m *nn.Model) {
	for _, p := range m.Params() {
		d.floats(p.G.Data())
	}
}

// gradientDigests runs three unfrozen direct steps (Model.Forward and
// Backward, batch statistics) and then three frozen pair steps
// (Trainer.ForwardBackwardPair, clean and triggered terms) on a fresh
// w0.25 model, with an SGD step after each so every step sees new
// weights. Each mode's digest covers the losses, the input gradients,
// every parameter gradient and, unfrozen, the running statistics.
func gradientDigests(t *testing.T, arch string) map[string]string {
	t.Helper()
	mcfg := models.Config{Arch: arch, Classes: 10, WidthMult: 0.25, Seed: 1}
	m, err := models.Build(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := data.SynthCIFAR(8, 5)
	b := data.Synthesize(dcfg, 6).Batches(8)[0]
	trig := b.Images.Clone()
	data.NewSquareTrigger(3, 32, 32, 10).Apply(trig)
	targets := []int{2, 2, 2, 2, 2, 2, 2, 2}
	opt := nn.NewSGD(m.Params(), 0.05, 0.9, 5e-4)
	out := map[string]string{}

	d := newDigester()
	for step := 0; step < 3; step++ {
		m.ZeroGrad()
		logits := m.Forward(b.Images, true)
		loss, grad := nn.CrossEntropy(logits, b.Labels, 1)
		d.floats([]float32{loss})
		d.floats(m.Backward(grad).Data())
		digestGrads(d, m)
		opt.Step()
	}
	digestModel(d, m)
	out["grad3/"+arch+"/unfrozen_direct"] = d.sum()

	nn.FreezeBatchNorm(m.Root)
	tr := nn.NewTrainer(m, nn.DefaultTrainShards)
	d = newDigester()
	for step := 0; step < 3; step++ {
		m.ZeroGrad()
		l0, l1, in0, in1 := tr.ForwardBackwardPair(b.Images, b.Labels, 0.5, trig, targets, 0.5)
		d.floats([]float32{l0, l1})
		d.floats(in0.Data())
		d.floats(in1.Data())
		digestGrads(d, m)
		opt.Step()
	}
	out["grad3/"+arch+"/frozen_pair"] = d.sum()
	return out
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 3 {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		got[fs[0]+" "+fs[1]] = fs[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

// writeGolden replaces kernel set set's lines for the given digests
// and keeps every other line, such as the Table 2 digest that
// internal/experiments checks.
func writeGolden(t *testing.T, old map[string]string, set string, digests map[string]string) {
	t.Helper()
	for name, sum := range digests {
		old[set+" "+name] = sum
	}
	keys := make([]string, 0, len(old))
	for k := range old {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("# sha256 digests of reference computations, keyed by kernel set.\n")
	sb.WriteString("# Recomputed by TestGoldenDigests and TestGoldenQuantForward\n")
	sb.WriteString("# (internal/pretrain); regenerate with\n")
	sb.WriteString("#   go test ./internal/pretrain -run TestGoldenDigests -update\n")
	sb.WriteString("# (or -run TestGoldenQuantForward for the \"any\" lines) and say why\n")
	sb.WriteString("# in CHANGES.md. An \"any\" line must hold under every kernel set.\n")
	sb.WriteString("# The \"any fleet/…\" lines are TestGoldenFleetDigest (internal/campaign):\n")
	sb.WriteString("#   go test ./internal/campaign -run TestGoldenFleetDigest -update\n")
	sb.WriteString("# once with -short and once without.\n")
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s %s\n", k, old[k])
	}
	if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenDigests holds the trained reference victim (the one the
// other tests here share through TrainCached) and the 3-step gradient
// digests of ResNet-20 and VGG-11 byte-identical to the committed
// values. A change that moves any of them — a kernel, a summation
// order, an initializer — fails here unless it regenerates the file
// with -update on purpose.
func TestGoldenDigests(t *testing.T) {
	r, err := TrainCached(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	d := newDigester()
	digestModel(d, r.Model)
	digests["victim/resnet20_w025"] = d.sum()
	for _, arch := range []string{"resnet20", "vgg11"} {
		for k, v := range gradientDigests(t, arch) {
			digests[k] = v
		}
	}

	if *updateGolden {
		golden := map[string]string{}
		if _, err := os.Stat(goldenFile); err == nil {
			golden = readGolden(t)
		}
		writeGolden(t, golden, kernelSet(), digests)
		return
	}
	golden := readGolden(t)
	set := kernelSet()
	names := make([]string, 0, len(digests))
	for name := range digests {
		names = append(names, name)
	}
	sort.Strings(names)
	missing := 0
	for _, name := range names {
		want, ok := golden[set+" "+name]
		if !ok {
			missing++
			continue
		}
		if got := digests[name]; got != want {
			t.Errorf("%s %s: digest %s, golden %s", set, name, got, want)
		}
	}
	switch {
	case missing == len(names):
		t.Skipf("no golden digests for the %s kernel set", set)
	case missing > 0:
		t.Errorf("%d of %d digests have no golden value for the %s kernel set", missing, len(names), set)
	}
}

// quantForwardDigests runs QModel.Forward on a fixed synthetic batch
// for ResNet-20, VGG-11 and ResNet-50 (bottleneck 1×1 convs) at width
// 0.25, at batch 64 (the evaluator's batch) and batch 1 (serving),
// clean and trigger-stamped, and returns the sha256 of each run's
// logits. Batch norm's affine parameters and running statistics are
// drawn from a seeded RNG before quantizing, so the fused epilogue
// folds non-trivial coefficients. short drops the batch-64 ResNet-50
// runs.
func quantForwardDigests(t *testing.T, short bool) map[string]string {
	t.Helper()
	ds := data.Synthesize(data.SynthCIFAR(64, 5), 6)
	clean := ds.Batches(64)[0].Images
	trig := clean.Clone()
	tr := data.NewSquareTrigger(3, 32, 32, 10)
	tensor.NewRNG(8).FillUniform(tr.Pattern, 0, 1)
	tr.Apply(trig)
	inputs := []struct {
		name string
		x    *tensor.Tensor
	}{{"clean", clean}, {"trigger", trig}}

	out := map[string]string{}
	for _, arch := range []string{"resnet20", "vgg11", "resnet50"} {
		m, err := models.Build(models.Config{Arch: arch, Classes: 10, WidthMult: 0.25, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rng := tensor.NewRNG(4)
		nn.Walk(m.Root, func(l nn.Layer) {
			bn, ok := l.(*nn.BatchNorm2D)
			if !ok {
				return
			}
			rng.FillUniform(bn.Gamma.W, 0.5, 1.5)
			rng.FillUniform(bn.Beta.W, -0.2, 0.2)
			for i := range bn.RunningMean {
				bn.RunningMean[i] = float32(rng.Float64()*0.4 - 0.2)
				bn.RunningVar[i] = float32(rng.Float64() + 0.5)
			}
		})
		qm := quant.NewQModel(quant.NewQuantizer(m))
		for _, batch := range []int{64, 1} {
			if short && batch == 64 && arch == "resnet50" {
				continue
			}
			for _, in := range inputs {
				x := in.x
				if batch == 1 {
					x = tensor.FromSlice(in.x.Data()[:3*32*32], 1, 3, 32, 32)
				}
				logits := qm.Forward(x).Data()
				for _, v := range logits {
					if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
						t.Fatalf("%s b%d %s: non-finite logit %v", arch, batch, in.name, v)
					}
				}
				d := newDigester()
				d.floats(logits)
				out[fmt.Sprintf("qfwd/%s_w025/b%d_%s", arch, batch, in.name)] = d.sum()
			}
		}
	}
	return out
}

// TestGoldenQuantForward holds the int8 engine's logits byte-identical
// to the committed "any" digests under the selected kernel set and
// under the portable twins: int32 accumulation is exact, and every
// float step of the engine (quantize, dequantizing epilogue, residual
// add) gives the same bits in both sets (DESIGN §12, §13). -short
// skips the batch-64 ResNet-50 runs.
func TestGoldenQuantForward(t *testing.T) {
	got := quantForwardDigests(t, testing.Short())
	if tensor.AcceleratedKernels() {
		restore := tensor.ForcePortableKernels()
		portable := quantForwardDigests(t, testing.Short())
		restore()
		for name, sum := range got {
			if portable[name] != sum {
				t.Errorf("%s: avx2 digest %s, portable %s", name, sum, portable[name])
			}
		}
	}
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update needs the full run (drop -short)")
		}
		writeGolden(t, readGolden(t), "any", got)
		return
	}
	golden := readGolden(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, ok := golden["any "+name]
		if !ok {
			t.Errorf("any %s: no golden digest", name)
			continue
		}
		if got[name] != want {
			t.Errorf("any %s: digest %s, golden %s", name, got[name], want)
		}
	}
}
