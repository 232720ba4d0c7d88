package quant

import (
	"sync"
	"sync/atomic"
	"testing"

	"rowhammer/internal/models"
)

// buildEngine is the shared fixture: a small untrained resnet20 and its
// int8 engine.
func buildEngine(t testing.TB, seed int64) (*Quantizer, *QModel) {
	t.Helper()
	m, err := models.Build(models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuantizer(m)
	return q, NewQModel(q)
}

// TestEpochHotSwapVisibility pins the DESIGN §9 contract: a mutation
// made through Exclusive is visible to the very next Forward, advances
// the epoch sequence by exactly one publish, and matches what a fresh
// engine computes from the same codes.
func TestEpochHotSwapVisibility(t *testing.T) {
	q, qm := buildEngine(t, 41)
	x := fixedBatch(qm.Model(), 3, 13)
	before := append([]float32(nil), qm.Forward(x).Data()...)
	seq0 := qm.EpochSeq()

	qm.Exclusive(func() { q.FlipBit(0, 7) })
	if got := qm.EpochSeq(); got != seq0+1 {
		t.Fatalf("EpochSeq after Exclusive = %d, want %d", got, seq0+1)
	}
	after := qm.Forward(x).Data()
	fresh := NewQModel(q).Forward(x).Data()
	changed := false
	for i := range after {
		if after[i] != fresh[i] {
			t.Fatalf("logit %d: hot-swapped %v vs fresh %v", i, after[i], fresh[i])
		}
		if after[i] != before[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("sign-bit flip did not move any logit")
	}
	if live := qm.LiveEpochs(); live != 1 {
		t.Fatalf("LiveEpochs = %d after drain, want 1", live)
	}
}

// TestEpochHotSwapCoeffParams covers the epilogue-coefficient slots: a
// hot-swapped flip to a bias/BN parameter (which the int8 plan folds
// into per-channel epilogue factors, not packed panels) must be honored
// exactly like a fresh compile.
func TestEpochHotSwapCoeffParams(t *testing.T) {
	q, qm := buildEngine(t, 43)
	x := fixedBatch(qm.Model(), 3, 17)
	qm.Forward(x) // publish the initial epoch

	// Find a parameter with no packed-weight binding (bias / BN affine).
	target := -1
	off := 0
	for pi, p := range qm.Model().Params() {
		if qm.paramWeight[pi] == nil && qm.paramCoeffSlot[pi] >= 0 {
			target = off
			break
		}
		off += p.W.Len()
	}
	if target < 0 {
		t.Fatal("no epilogue-coefficient parameter found")
	}
	qm.Exclusive(func() { q.FlipBit(target, 7) })
	after := qm.Forward(x).Data()
	fresh := NewQModel(q).Forward(x).Data()
	for i := range after {
		if after[i] != fresh[i] {
			t.Fatalf("logit %d: hot-swapped %v vs fresh %v after coeff flip", i, after[i], fresh[i])
		}
	}
}

// TestEpochFlipStormRace is the torn-read race test: one goroutine
// hammers FlipBit through the hot-swap path, toggling the model between
// exactly two code states, while N goroutines Forward continuously.
// Every returned batch must match the pre- or post-flip model byte for
// byte — a half-repacked panel or a forward mixing epochs across layers
// produces logits matching neither. Run under -race. After the storm
// drains, exactly one epoch may remain live (the retirement leak
// check).
func TestEpochFlipStormRace(t *testing.T) {
	q, qm := buildEngine(t, 47)
	if !qm.ConcurrentSafe() {
		t.Fatal("resnet20 plan must be concurrency-safe")
	}
	x := fixedBatch(qm.Model(), 4, 19)

	// State A: as-built. State B: a first-layer weight sign flip plus an
	// epilogue-parameter flip, so both panel and coefficient slots churn.
	coeffTarget := len(q.CodesView()) - 1 // final linear bias (coeff slot)
	toggle := func() {
		q.FlipBit(0, 7)
		q.FlipBit(coeffTarget, 6)
	}
	wantA := append([]float32(nil), qm.Forward(x).Data()...)
	qm.Exclusive(toggle)
	wantB := append([]float32(nil), qm.Forward(x).Data()...)
	qm.Exclusive(toggle) // back to A

	const flips = 60
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 16)

	// The attacker: hot-swap flips as fast as the engine allows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			qm.Exclusive(toggle)
		}
		stop.Store(true)
	}()

	// The serving threads: continuous forwards, each result must be
	// exactly state A's or state B's logits.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got := qm.Forward(x).Data()
				matchA, matchB := true, true
				for i := range got {
					if got[i] != wantA[i] {
						matchA = false
					}
					if got[i] != wantB[i] {
						matchB = false
					}
					if !matchA && !matchB {
						errs <- "torn read: forward output matches neither published epoch"
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
	if live := qm.LiveEpochs(); live != 1 {
		t.Fatalf("epoch leak: %d epochs live after drain, want 1", live)
	}
	// flips was even, so the final state is A again.
	final := qm.Forward(x).Data()
	for i := range final {
		if final[i] != wantA[i] {
			t.Fatalf("final state diverged from state A at logit %d", i)
		}
	}
}

// TestEpochPublishVsPinStress races bare epoch pins against publishes.
// A reader that loads cur just before a publish retires that epoch can
// otherwise pin it at refs == 0 and, on its superseded-retry release,
// retire it a second time, so the live-epoch gauge undercounts. Each
// round drains every reader and then requires exactly one live epoch;
// the gauge must also never read below one mid-storm. Run under -race.
func TestEpochPublishVsPinStress(t *testing.T) {
	q, qm := buildEngine(t, 53)
	qm.Forward(fixedBatch(qm.Model(), 1, 23)) // publish the first full epoch

	const (
		rounds    = 8
		publishes = 150
		readers   = 4
	)
	for round := 0; round < rounds; round++ {
		var stop atomic.Bool
		var minLive atomic.Int64
		minLive.Store(1)
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					ep := qm.acquireEpoch()
					if live := qm.LiveEpochs(); live < 1 {
						minLive.Store(live)
					}
					ep.release()
				}
			}()
		}
		for i := 0; i < publishes; i++ {
			qm.Exclusive(func() { q.FlipBit(0, 7) })
		}
		stop.Store(true)
		wg.Wait()
		if live := minLive.Load(); live < 1 {
			t.Fatalf("round %d: LiveEpochs read %d mid-storm, want >= 1", round, live)
		}
		if live := qm.LiveEpochs(); live != 1 {
			t.Fatalf("round %d: %d epochs live after drain, want 1", round, live)
		}
	}
}
