package nn

import (
	"runtime"
	"testing"

	"rowhammer/internal/tensor"
)

// raiseProcs lifts GOMAXPROCS to at least 4 for the rest of the test,
// so runs at several workers are genuinely concurrent even on a
// single-CPU machine (tensor.MaxWorkers clamps to GOMAXPROCS).
func raiseProcs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// trainerGradients runs one trainer step at the given worker bound and
// returns the flattened master gradients, the loss, and a copy of the
// input gradient.
func trainerGradients(t *testing.T, seed int64, workers int) ([]float32, float32, []float32) {
	t.Helper()
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(workers))

	m := cloneTestModel(seed)
	FreezeBatchNorm(m.Root)
	tr := NewTrainer(m, 0)

	rng := tensor.NewRNG(seed + 100)
	x := tensor.New(8, 2, 8, 8)
	rng.FillNormal(x, 0, 1)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1}

	m.ZeroGrad()
	loss, inGrad := tr.ForwardBackward(x, labels, 1)

	var grads []float32
	for _, p := range m.Params() {
		grads = append(grads, p.G.Data()...)
	}
	return grads, loss, append([]float32(nil), inGrad.Data()...)
}

// TestTrainerGradientsBitIdenticalAcrossWorkers is the determinism
// contract: the tensor.MaxWorkers bound must not change a single bit of
// the accumulated gradients, the loss, or the input gradient. This is
// what makes attack results reproducible across machines with
// different core counts.
func TestTrainerGradientsBitIdenticalAcrossWorkers(t *testing.T) {
	raiseProcs(t)
	refGrads, refLoss, refIn := trainerGradients(t, 41, 1)
	for _, workers := range []int{2, 4} {
		grads, loss, inGrad := trainerGradients(t, 41, workers)
		if loss != refLoss {
			t.Fatalf("workers=%d: loss %v != %v at 1 worker", workers, loss, refLoss)
		}
		for i := range refGrads {
			if grads[i] != refGrads[i] {
				t.Fatalf("workers=%d: gradient %d differs bitwise (%v vs %v)", workers, i, grads[i], refGrads[i])
			}
		}
		for i := range refIn {
			if inGrad[i] != refIn[i] {
				t.Fatalf("workers=%d: input gradient %d differs bitwise", workers, i)
			}
		}
	}
}

// TestTrainerSingleShardMatchesDirectPath pins the trainer's numerics
// to the plain Model.Forward/CrossEntropy/Model.Backward path: the
// whole batch runs on one replica in the same order, so every result
// must agree bit for bit — with live batch norm also the running
// statistics the step leaves in the master.
func TestTrainerSingleShardMatchesDirectPath(t *testing.T) {
	for _, frozen := range []bool{true, false} {
		trainerMatchesDirectPath(t, frozen)
	}
}

func trainerMatchesDirectPath(t *testing.T, frozen bool) {
	t.Helper()
	seed := int64(43)
	m := cloneTestModel(seed)
	if frozen {
		FreezeBatchNorm(m.Root)
	}
	rng := tensor.NewRNG(seed + 100)
	x := tensor.New(6, 2, 8, 8)
	rng.FillNormal(x, 0, 1)
	labels := []int{2, 1, 0, 2, 1, 0}

	direct := m.Clone()
	direct.ZeroGrad()
	out := direct.Forward(x, true)
	dLoss, grad := CrossEntropy(out, labels, 0.5)
	dIn := direct.Backward(grad)

	tr := NewTrainer(m, DefaultTrainShards)
	m.ZeroGrad()
	tLoss, tIn := tr.ForwardBackward(x, labels, 0.5)

	if dLoss != tLoss {
		t.Fatalf("frozen=%v: loss %v (direct) != %v (trainer)", frozen, dLoss, tLoss)
	}
	dp, tp := direct.Params(), m.Params()
	for i := range dp {
		dg, tg := dp[i].G.Data(), tp[i].G.Data()
		for j := range dg {
			if dg[j] != tg[j] {
				t.Fatalf("frozen=%v: param %q grad %d: direct %v != trainer %v", frozen, dp[i].Name, j, dg[j], tg[j])
			}
		}
	}
	for i := range dIn.Data() {
		if dIn.Data()[i] != tIn.Data()[i] {
			t.Fatalf("frozen=%v: input gradient %d differs bitwise", frozen, i)
		}
	}
	dbn, tbn := collectBatchNorms(direct.Root), collectBatchNorms(m.Root)
	if len(dbn) == 0 {
		t.Fatal("test model has no batch norm")
	}
	for i := range dbn {
		if j := firstDiff(dbn[i].RunningMean, tbn[i].RunningMean); j >= 0 {
			t.Fatalf("frozen=%v: batch norm %d running mean %d differs", frozen, i, j)
		}
		if j := firstDiff(dbn[i].RunningVar, tbn[i].RunningVar); j >= 0 {
			t.Fatalf("frozen=%v: batch norm %d running variance %d differs", frozen, i, j)
		}
	}
}

// TestTrainerAccumulatesLikeDirectBackward verifies the two-call
// pattern the attack loop uses (clean term then triggered term without
// an intervening ZeroGrad) sums gradients the same way.
func TestTrainerAccumulatesLikeDirectBackward(t *testing.T) {
	m := cloneTestModel(45)
	FreezeBatchNorm(m.Root)
	tr := NewTrainer(m, 0)
	rng := tensor.NewRNG(46)
	x := tensor.New(4, 2, 8, 8)
	rng.FillNormal(x, 0, 1)
	labels := []int{0, 1, 2, 0}
	target := []int{1, 1, 1, 1}

	direct := m.Clone()
	direct.ZeroGrad()
	out := direct.Forward(x, true)
	_, g1 := CrossEntropy(out, labels, 0.5)
	direct.Backward(g1)
	out = direct.Forward(x, true)
	_, g2 := CrossEntropy(out, target, 0.5)
	direct.Backward(g2)

	m.ZeroGrad()
	tr.ForwardBackward(x, labels, 0.5)
	tr.ForwardBackward(x, target, 0.5)

	dp, tp := direct.Params(), m.Params()
	for i := range dp {
		dg, tg := dp[i].G.Data(), tp[i].G.Data()
		for j := range dg {
			if dg[j] != tg[j] {
				t.Fatalf("param %q accumulated grad %d differs", dp[i].Name, j)
			}
		}
	}
}

// TestTrainerTrainsUnfrozenModel sanity-checks the live batch-norm
// path: training with batch statistics still learns.
func TestTrainerTrainsUnfrozenModel(t *testing.T) {
	rng := tensor.NewRNG(47)
	net := NewSequential(
		NewConv2D("c", rng, 1, 4, 3, 1, 1, false),
		NewBatchNorm2D("bn", 4),
		NewReLU(),
		NewGlobalAvgPool(),
		NewLinear("fc", rng, 4, 2),
	)
	m := NewModel("tiny", net, 2, [3]int{1, 6, 6})
	tr := NewTrainer(m, 0)
	opt := NewSGD(m.Params(), 0.1, 0.9, 0)

	x := tensor.New(8, 1, 6, 6)
	labels := make([]int, 8)
	for i := 0; i < 8; i++ {
		labels[i] = i % 2
		base := i * 36
		for j := 0; j < 36; j++ {
			if labels[i] == 1 {
				x.Data()[base+j] = float32(j % 3)
			} else {
				x.Data()[base+j] = -float32(j % 2)
			}
		}
	}
	m.ZeroGrad()
	first, _ := tr.ForwardBackward(x, labels, 1)
	opt.Step()
	loss := first
	for i := 0; i < 25; i++ {
		m.ZeroGrad()
		loss, _ = tr.ForwardBackward(x, labels, 1)
		opt.Step()
	}
	if loss >= first {
		t.Fatalf("trainer did not reduce loss: %v -> %v", first, loss)
	}
}

// TestNewTrainerRejectsShards: a trainer runs one shard, so a larger
// shard count must panic rather than be silently ignored.
func TestNewTrainerRejectsShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTrainer accepted 2 shards")
		}
	}()
	NewTrainer(cloneTestModel(65), 2)
}

// TestTrainerResyncsAfterWeightMutation mutates master weights between
// steps (as the masked sign-SGD update does) and checks the next step
// sees them.
func TestTrainerResyncsAfterWeightMutation(t *testing.T) {
	m := cloneTestModel(49)
	FreezeBatchNorm(m.Root)
	tr := NewTrainer(m, 0)
	rng := tensor.NewRNG(50)
	x := tensor.New(4, 2, 8, 8)
	rng.FillNormal(x, 0, 1)
	labels := []int{0, 1, 2, 0}

	m.ZeroGrad()
	tr.ForwardBackward(x, labels, 1)

	// An equivalent fresh model with the mutated weights must produce
	// the same gradients as the long-lived trainer after mutation.
	for _, p := range m.Params() {
		p.W.Data()[0] *= 1.5
	}
	m2 := m.Clone()
	tr2 := NewTrainer(m2, 0)
	m2.ZeroGrad()
	loss2, _ := tr2.ForwardBackward(x, labels, 1)

	m.ZeroGrad()
	loss1, _ := tr.ForwardBackward(x, labels, 1)
	if loss1 != loss2 {
		t.Fatalf("stale replica weights: loss %v != fresh-trainer loss %v", loss1, loss2)
	}
	p1, p2 := m.Params(), m2.Params()
	for i := range p1 {
		for j := range p1[i].G.Data() {
			if p1[i].G.Data()[j] != p2[i].G.Data()[j] {
				t.Fatalf("param %q grad differs after weight mutation", p1[i].Name)
			}
		}
	}
}

// pairStep is one trainer step's observable output: the flattened
// master gradients, both terms' losses and copies of both input
// gradients.
type pairStep struct {
	grads            []float32
	loss0, loss1     float32
	inGrad0, inGrad1 []float32
}

func flatGrads(m *Model) []float32 {
	var g []float32
	for _, p := range m.Params() {
		g = append(g, p.G.Data()...)
	}
	return g
}

// runPairSteps runs three consecutive two-term steps on a fresh frozen
// model, mutating master weights between steps as the attack's masked
// update does, at the given tensor.MaxWorkers bound. With pair set the
// terms run through ForwardBackwardPair; otherwise through two
// sequential ForwardBackward calls.
func runPairSteps(t *testing.T, workers int, pair bool) []pairStep {
	t.Helper()
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(workers))

	m := cloneTestModel(61)
	FreezeBatchNorm(m.Root)
	tr := NewTrainer(m, 0)

	rng := tensor.NewRNG(62)
	x0 := tensor.New(6, 2, 8, 8)
	x1 := tensor.New(6, 2, 8, 8)
	rng.FillNormal(x0, 0, 1)
	rng.FillNormal(x1, 0, 1)
	l0 := []int{0, 1, 2, 0, 1, 2}
	l1 := []int{2, 2, 2, 2, 2, 2}

	var steps []pairStep
	for step := 0; step < 3; step++ {
		// Step 1 accumulates onto step 0's gradients, so the fold order
		// (G + g₀) + g₁ is observable, not hidden by a zeroed G.
		if step != 1 {
			m.ZeroGrad()
		}
		var s pairStep
		if pair {
			var in0, in1 *tensor.Tensor
			s.loss0, s.loss1, in0, in1 = tr.ForwardBackwardPair(x0, l0, 0.4, x1, l1, 0.6)
			s.inGrad0 = append([]float32(nil), in0.Data()...)
			s.inGrad1 = append([]float32(nil), in1.Data()...)
		} else {
			loss0, in0 := tr.ForwardBackward(x0, l0, 0.4)
			s.loss0, s.inGrad0 = loss0, append([]float32(nil), in0.Data()...)
			loss1, in1 := tr.ForwardBackward(x1, l1, 0.6)
			s.loss1, s.inGrad1 = loss1, append([]float32(nil), in1.Data()...)
		}
		s.grads = flatGrads(m)
		steps = append(steps, s)

		// Sign-SGD-like mutation so the next step must resync replicas.
		for _, p := range m.Params() {
			w, g := p.W.Data(), p.G.Data()
			for i := range w {
				if g[i] > 0 {
					w[i] -= 0.01
				} else if g[i] < 0 {
					w[i] += 0.01
				}
			}
		}
	}
	return steps
}

// firstDiff returns the first index where a and b differ bitwise (0 on a
// length mismatch), or -1 when they are identical.
func firstDiff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestTrainerPairMatchesSequentialCalls pins the term-order contract:
// a ForwardBackwardPair is bit-identical to two sequential
// ForwardBackward calls — master gradients, both losses and both input
// gradients — at every worker bound, across consecutive steps with
// master weight mutations in between. At 2 and 4 workers the two terms
// run concurrently.
func TestTrainerPairMatchesSequentialCalls(t *testing.T) {
	raiseProcs(t)
	ref := runPairSteps(t, 1, false)
	for _, workers := range []int{1, 2, 4} {
		got := runPairSteps(t, workers, true)
		for step := range ref {
			r, g := ref[step], got[step]
			if g.loss0 != r.loss0 || g.loss1 != r.loss1 {
				t.Fatalf("workers=%d step %d: losses (%v, %v) != sequential (%v, %v)",
					workers, step, g.loss0, g.loss1, r.loss0, r.loss1)
			}
			if i := firstDiff(g.grads, r.grads); i >= 0 {
				t.Fatalf("workers=%d step %d: master gradient %d differs from sequential", workers, step, i)
			}
			if i := firstDiff(g.inGrad0, r.inGrad0); i >= 0 {
				t.Fatalf("workers=%d step %d: term-0 input gradient %d differs", workers, step, i)
			}
			if i := firstDiff(g.inGrad1, r.inGrad1); i >= 0 {
				t.Fatalf("workers=%d step %d: term-1 input gradient %d differs", workers, step, i)
			}
		}
	}
}

// TestTrainerPairRejectsUnfrozenBatchNorm: live batch statistics would
// make the second term depend on the first, so a pair must refuse them.
func TestTrainerPairRejectsUnfrozenBatchNorm(t *testing.T) {
	m := cloneTestModel(63)
	tr := NewTrainer(m, 0)
	x := tensor.New(2, 2, 8, 8)
	labels := []int{0, 1}
	defer func() {
		if recover() == nil {
			t.Fatal("ForwardBackwardPair accepted a model with unfrozen batch norm")
		}
	}()
	tr.ForwardBackwardPair(x, labels, 0.5, x, labels, 0.5)
}
