package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/profile"
	"rowhammer/internal/tensor"
)

// TestExecuteOnlineWorkerDeterminism asserts the end-to-end online
// metrics — and the corrupted weight file itself — do not depend on the
// templating worker count. GOMAXPROCS is raised so the multi-worker
// runs are genuinely concurrent even on a single-CPU machine.
func TestExecuteOnlineWorkerDeterminism(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prevProcs)

	const filePages = 256
	file, reqs := profile.SyntheticWorkload(filePages, 3)
	cfg := OnlineConfig{
		BufferPages:    2048,
		Sides:          2,
		Intensity:      1,
		MeasureSeed:    7,
		WeightFileName: "det-weights.bin",
	}

	run := func(workers int) *OnlineResult {
		prev := tensor.SetMaxWorkers(workers)
		defer tensor.SetMaxWorkers(prev)
		mod, err := dram.NewModuleForSize(cfg.BufferPages*memsys.PageSize+(16<<20), dram.PaperDDR3(), 77)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ExecuteOnline(memsys.NewSystem(mod), file, reqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ref := run(1)
	if ref.NMatch == 0 {
		t.Fatal("workload matched no requirement; determinism check would be vacuous")
	}
	for _, w := range []int{2, 4} {
		got := run(w)
		if got.NFlipOnline != ref.NFlipOnline || got.NMatch != ref.NMatch ||
			got.NRequired != ref.NRequired || got.AccidentalFlips != ref.AccidentalFlips ||
			got.RMatch != ref.RMatch {
			t.Fatalf("metrics at %d workers = (flips %d, match %d/%d, accidental %d, r %.2f), want (%d, %d/%d, %d, %.2f)",
				w, got.NFlipOnline, got.NMatch, got.NRequired, got.AccidentalFlips, got.RMatch,
				ref.NFlipOnline, ref.NMatch, ref.NRequired, ref.AccidentalFlips, ref.RMatch)
		}
		if !bytes.Equal(got.CorruptedFile, ref.CorruptedFile) {
			t.Fatalf("corrupted file at %d workers differs from 1-worker reference", w)
		}
		if !reflect.DeepEqual(got.Plan, ref.Plan) {
			t.Fatalf("placement plan at %d workers differs from 1-worker reference", w)
		}
	}
}
