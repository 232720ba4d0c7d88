package core

import (
	"testing"

	"rowhammer/internal/data"
	"rowhammer/internal/models"
)

// runOfflineAtWorkers executes a short RunOffline against a freshly
// built (untrained) victim with the given shard count and worker bound.
// Untrained weights are fine here: the test checks the determinism
// contract, not attack quality.
func runOfflineAtWorkers(t *testing.T, shards, workers int) *Result {
	t.Helper()
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
	cfg.TrainShards = shards
	cfg.TrainWorkers = workers
	out, err := RunOffline(m, attackSet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunOfflineBitIdenticalAcrossWorkers pins the trainer's
// determinism contract end to end: with a fixed TrainShards, the
// worker count is scheduling-only, so the attack output — codes, flip
// count, per-iteration losses, learned trigger — must be byte-identical
// at any parallelism. Each iteration's clean and triggered passes run
// as one trainer pair, concurrently whenever workers > 1, so this also
// pins the pair path against its inline (workers = 1) schedule at the
// default single shard and at four shards.
func TestRunOfflineBitIdenticalAcrossWorkers(t *testing.T) {
	for _, shards := range []int{1, 4} {
		base := runOfflineAtWorkers(t, shards, 1)
		for _, workers := range []int{2, 4} {
			out := runOfflineAtWorkers(t, shards, workers)
			if out.NFlip != base.NFlip {
				t.Fatalf("shards=%d workers=%d: NFlip %d != %d at workers=1", shards, workers, out.NFlip, base.NFlip)
			}
			if len(out.BackdooredCodes) != len(base.BackdooredCodes) {
				t.Fatalf("shards=%d workers=%d: code vector length mismatch", shards, workers)
			}
			for i := range out.BackdooredCodes {
				if out.BackdooredCodes[i] != base.BackdooredCodes[i] {
					t.Fatalf("shards=%d workers=%d: code %d differs: %d != %d", shards, workers, i, out.BackdooredCodes[i], base.BackdooredCodes[i])
				}
			}
			if len(out.LossHistory) != len(base.LossHistory) {
				t.Fatalf("shards=%d workers=%d: loss history length mismatch", shards, workers)
			}
			for i := range out.LossHistory {
				if out.LossHistory[i] != base.LossHistory[i] {
					t.Fatalf("shards=%d workers=%d: loss[%d] %v != %v", shards, workers, i, out.LossHistory[i], base.LossHistory[i])
				}
			}
			got, want := out.Trigger.Pattern.Data(), base.Trigger.Pattern.Data()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d workers=%d: trigger pattern %d differs: %v != %v", shards, workers, i, got[i], want[i])
				}
			}
		}
	}
}
