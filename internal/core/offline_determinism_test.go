package core

import (
	"runtime"
	"testing"

	"rowhammer/internal/data"
	"rowhammer/internal/models"
	"rowhammer/internal/tensor"
)

// runOfflineAtWorkers executes a short RunOffline against a freshly
// built (untrained) victim at the given tensor.MaxWorkers bound.
// Untrained weights are fine here: the test checks the determinism
// contract, not attack quality.
func runOfflineAtWorkers(t *testing.T, workers int) *Result {
	t.Helper()
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(workers))
	m, err := models.Build(models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dcfg := data.SynthCIFAR(0, 21)
	dcfg.Samples = 16
	attackSet := data.Synthesize(dcfg, 99)

	cfg := DefaultConfig(3, 2)
	cfg.Iterations = 4
	cfg.BitReduceEvery = 2
	cfg.RefineBatch = 8
	out, err := RunOffline(m, attackSet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunOfflineBitIdenticalAcrossWorkers pins the trainer's
// determinism contract end to end: the worker bound is scheduling-only,
// so the attack output — codes, flip count, per-iteration losses,
// learned trigger — must be byte-identical at any parallelism. Each
// iteration's clean and triggered passes run as one trainer pair,
// concurrently whenever workers > 1, so this also pins the pair path
// against its inline (workers = 1) schedule. GOMAXPROCS is raised so
// the multi-worker runs are genuinely concurrent even on a single-CPU
// machine.
func TestRunOfflineBitIdenticalAcrossWorkers(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	base := runOfflineAtWorkers(t, 1)
	for _, workers := range []int{2, 4} {
		out := runOfflineAtWorkers(t, workers)
		if out.NFlip != base.NFlip {
			t.Fatalf("workers=%d: NFlip %d != %d at workers=1", workers, out.NFlip, base.NFlip)
		}
		if len(out.BackdooredCodes) != len(base.BackdooredCodes) {
			t.Fatalf("workers=%d: code vector length mismatch", workers)
		}
		for i := range out.BackdooredCodes {
			if out.BackdooredCodes[i] != base.BackdooredCodes[i] {
				t.Fatalf("workers=%d: code %d differs: %d != %d", workers, i, out.BackdooredCodes[i], base.BackdooredCodes[i])
			}
		}
		if len(out.LossHistory) != len(base.LossHistory) {
			t.Fatalf("workers=%d: loss history length mismatch", workers)
		}
		for i := range out.LossHistory {
			if out.LossHistory[i] != base.LossHistory[i] {
				t.Fatalf("workers=%d: loss[%d] %v != %v", workers, i, out.LossHistory[i], base.LossHistory[i])
			}
		}
		got, want := out.Trigger.Pattern.Data(), base.Trigger.Pattern.Data()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: trigger pattern %d differs: %v != %v", workers, i, got[i], want[i])
			}
		}
	}
}
