package quant

import (
	"runtime"
	"testing"

	"rowhammer/internal/models"
	"rowhammer/internal/nn"
	"rowhammer/internal/tensor"
)

// scorerFixture builds a quantized resnet20 with a pinned evaluation
// batch and returns the scorer plus a reference evaluator that computes
// the same blended objective with two full forwards.
func scorerFixture(t *testing.T, arch string) (*Quantizer, *QModel, *Scorer, func() float32) {
	t.Helper()
	m, err := models.Build(models.Config{Arch: arch, Classes: 10, WidthMult: 0.25, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuantizer(m)
	qm := NewQModel(q)
	clean := fixedBatch(m, 4, 31)
	trig := fixedBatch(m, 4, 32)
	labels := []int{0, 1, 2, 3}
	targets := []int{2, 2, 2, 2}
	const alpha = 0.5
	full := func() float32 {
		return nn.CrossEntropyLoss(qm.Forward(clean), labels, 1-alpha) +
			nn.CrossEntropyLoss(qm.Forward(trig), targets, alpha)
	}
	s := NewScorer(qm, clean, trig, labels, targets, alpha)
	return q, qm, s, full
}

// scorerProbeWeights picks candidate weight indices spread across the
// plan: the first weight (earliest conv), a weight from the last GEMM
// param, and — when present — a weight on a parameter the int8 plan
// reads from live floats (BN gamma/beta or a bias), which exercises the
// serial mutate-and-revert path.
func scorerProbeWeights(q *Quantizer, qm *QModel) []int {
	idx := []int{0}
	lastGemm, serial := -1, -1
	for pi := range qm.paramWeight {
		if qm.paramStage[pi] < 0 {
			continue
		}
		if qm.paramWeight[pi] != nil {
			lastGemm = pi
		} else if serial < 0 {
			serial = pi
		}
	}
	if lastGemm >= 0 {
		idx = append(idx, q.offsets[lastGemm])
	}
	if serial >= 0 {
		idx = append(idx, q.offsets[serial])
	}
	return idx
}

// TestScorerMatchesFullForward is the bit-identity contract: Loss and
// every candidate score must equal the corresponding full-forward
// evaluation exactly, on both the concurrent panel-override path and
// the serial mutate-and-revert path.
func TestScorerMatchesFullForward(t *testing.T) {
	q, qm, s, full := scorerFixture(t, "resnet20")

	if got, want := s.Loss(), full(); got != want {
		t.Fatalf("baseline loss %v, want full-forward %v", got, want)
	}

	var cands []Candidate
	for _, wi := range scorerProbeWeights(q, qm) {
		old := q.Code(wi)
		cands = append(cands,
			Candidate{Weight: wi, Code: old ^ 0x04},
			Candidate{Weight: wi, Code: int8(byte(old) ^ 0x80)},
		)
	}
	want := make([]float32, len(cands))
	for i, c := range cands {
		old := q.Code(c.Weight)
		q.SetCode(c.Weight, c.Code)
		want[i] = full()
		q.SetCode(c.Weight, old)
	}
	wantBase := full()

	got, base := s.Score(cands)
	if base != wantBase {
		t.Fatalf("base loss %v, want %v", base, wantBase)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("candidate %d (weight %d): scorer %v, want full-forward %v",
				i, cands[i].Weight, got[i], want[i])
		}
	}

	// Scoring must leave the codes untouched.
	if l := full(); l != wantBase {
		t.Fatalf("codes perturbed by scoring: loss %v, want %v", l, wantBase)
	}
}

// TestScorerWorkerDeterminism scores the same candidate set at several
// tensor.MaxWorkers bounds; the losses must be byte-identical.
// GOMAXPROCS is raised so the multi-worker runs are genuinely
// concurrent even on a single-CPU machine.
func TestScorerWorkerDeterminism(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	q, qm, s, _ := scorerFixture(t, "resnet20")
	var cands []Candidate
	for _, wi := range scorerProbeWeights(q, qm) {
		old := q.Code(wi)
		cands = append(cands, Candidate{Weight: wi, Code: int8(byte(old) ^ 0x80)})
	}
	ref, refBase := s.Score(cands)
	for _, w := range []int{2, 4} {
		tensor.SetMaxWorkers(w)
		got, base := s.Score(cands)
		if base != refBase {
			t.Fatalf("workers=%d: base %v, want %v", w, base, refBase)
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d candidate %d: %v, want %v", w, i, got[i], ref[i])
			}
		}
	}
}

// TestScorerInvalidation covers the cache-consistency contract: a
// committed SetCode must be reflected by the next Loss (via the
// code-change notification shrinking the valid prefix), an in-place
// restamp of the pinned inputs must be reflected after InputsChanged,
// and Release must not change any result.
func TestScorerInvalidation(t *testing.T) {
	q, _, s, full := scorerFixture(t, "resnet20")

	before := s.Loss()
	q.FlipBit(0, 7)
	if got, want := s.Loss(), full(); got != want {
		t.Fatalf("after SetCode: scorer %v, want %v", got, want)
	}
	if s.Loss() == before {
		t.Fatal("sign-bit flip did not move the cached loss")
	}
	q.FlipBit(0, 7)
	if got := s.Loss(); got != before {
		t.Fatalf("after revert: scorer %v, want %v", got, before)
	}

	// Restamp the pinned triggered batch in place; the cache is stale by
	// design until InputsChanged, after which it must match the full
	// forwards on the new contents.
	td := s.trig.Data()
	for i := range td {
		td[i] *= 0.5
	}
	s.InputsChanged()
	if got, want := s.Loss(), full(); got != want {
		t.Fatalf("after InputsChanged: scorer %v, want %v", got, want)
	}

	s.Release()
	if got, want := s.Loss(), full(); got != want {
		t.Fatalf("after Release: scorer %v, want %v", got, want)
	}
}

// TestScorerFallbackArch runs the scorer on bin-resnet32, whose plan
// contains float fallback layers (ConcurrentSafe is false): every
// candidate must take the serial path and still match full forwards
// exactly.
func TestScorerFallbackArch(t *testing.T) {
	q, qm, s, full := scorerFixture(t, "bin-resnet32")
	if qm.ConcurrentSafe() {
		t.Fatal("fixture expected a non-ConcurrentSafe plan")
	}
	if got, want := s.Loss(), full(); got != want {
		t.Fatalf("baseline loss %v, want %v", got, want)
	}
	var cands []Candidate
	for _, wi := range scorerProbeWeights(q, qm) {
		old := q.Code(wi)
		cands = append(cands, Candidate{Weight: wi, Code: int8(byte(old) ^ 0x80)})
	}
	want := make([]float32, len(cands))
	for i, c := range cands {
		old := q.Code(c.Weight)
		q.SetCode(c.Weight, c.Code)
		want[i] = full()
		q.SetCode(c.Weight, old)
	}
	got, _ := s.Score(cands)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("candidate %d: scorer %v, want %v", i, got[i], want[i])
		}
	}
}

// TestScorerScoreIntoReuse checks the destination-slice contract: a
// too-small dst is grown, a large-enough dst is reused in place.
func TestScorerScoreIntoReuse(t *testing.T) {
	q, _, s, _ := scorerFixture(t, "resnet20")
	cands := []Candidate{{Weight: 0, Code: q.Code(0) ^ 0x04}}
	buf := make([]float32, 8)
	got, _ := s.ScoreInto(buf, cands)
	if len(got) != 1 || &got[0] != &buf[0] {
		t.Fatal("ScoreInto did not reuse the provided buffer")
	}
	empty, _ := s.ScoreInto(nil, nil)
	if len(empty) != 0 {
		t.Fatalf("empty candidate set produced %d losses", len(empty))
	}
}

func BenchmarkScorer(b *testing.B) {
	m, err := models.Build(models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	q := NewQuantizer(m)
	qm := NewQModel(q)
	clean := fixedBatch(m, 8, 31)
	trig := fixedBatch(m, 8, 32)
	labels := make([]int, 8)
	targets := make([]int, 8)
	s := NewScorer(qm, clean, trig, labels, targets, 0.5)
	// A late-stage candidate: the suffix is short, which is the common
	// case for the CFT+BR refinement (the weight file is dominated by
	// deep layers).
	wi := q.NumWeights() - 1
	cands := []Candidate{{Weight: wi, Code: int8(byte(q.Code(wi)) ^ 0x80)}}
	s.Score(cands) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Score(cands)
	}
}
