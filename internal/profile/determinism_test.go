package profile

import (
	"reflect"
	"runtime"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/tensor"
)

// profileAtWorkers runs ProfileBuffer on a fresh system (hammering
// mutates memory, so every run must start from identical state) with
// the worker cap set to n and the fault model fm installed, then a
// ReprofileUnion pass over a clone of the result on the same system, so
// the module's pass counters carry on into the re-sweep. It returns the
// profile, the unioned clone and the flips the union added.
func profileAtWorkers(t *testing.T, workers, bufPages int, cfg Config, fm dram.FaultModel) (p, union *Profile, added int) {
	t.Helper()
	prev := tensor.SetMaxWorkers(workers)
	defer tensor.SetMaxWorkers(prev)
	mod, err := dram.NewModuleForSize(bufPages*memsys.PageSize+(8<<20), dram.PaperDDR3(), 42)
	if err != nil {
		t.Fatal(err)
	}
	sys := memsys.NewSystem(mod)
	sys.InjectFaults(fm)
	attacker := sys.NewProcess()
	base, err := attacker.Mmap(bufPages)
	if err != nil {
		t.Fatal(err)
	}
	if p, err = ProfileBuffer(sys, attacker, base, bufPages, cfg); err != nil {
		t.Fatal(err)
	}
	union = p.Clone()
	if added, err = ReprofileUnion(sys, attacker, union, cfg); err != nil {
		t.Fatal(err)
	}
	return p, union, added
}

// TestProfileBufferWorkerDeterminism is the engine's core contract:
// the profile — row order, aggressor addresses, every flip in every
// template — is byte-for-byte identical at 1, 2 and 4 workers, and so
// is a ReprofileUnion pass over it. Under a fault model that holds only
// if every row's pass counter advances in the same order at any worker
// count. Raising GOMAXPROCS makes the multi-worker runs genuinely
// concurrent even on a single-CPU machine (MaxWorkers clamps to
// GOMAXPROCS).
func TestProfileBufferWorkerDeterminism(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prevProcs)

	cases := []struct {
		name  string
		cfg   Config
		fault dram.FaultModel
	}{
		{"doubleSided", Config{Sides: 2, Intensity: 1, MeasureSeed: 5, SkipSpoilerCheck: true}, dram.FaultModel{}},
		{"nSided7", Config{Sides: 7, Intensity: 1, MeasureSeed: 5, SkipSpoilerCheck: true}, dram.FaultModel{}},
		{"doubleSidedFaulty", Config{Sides: 2, Intensity: 1, MeasureSeed: 5, SkipSpoilerCheck: true},
			dram.FaultModel{FlipFailProb: 0.3, TRRJitter: 0.05, Seed: 8}},
	}
	const bufPages = 2048
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, refUnion, refAdded := profileAtWorkers(t, 1, bufPages, tc.cfg, tc.fault)
			if len(ref.Rows) == 0 || ref.TotalFlips() == 0 {
				t.Fatalf("reference profile is empty (%d rows, %d flips)", len(ref.Rows), ref.TotalFlips())
			}
			if tc.fault != (dram.FaultModel{}) && refAdded == 0 {
				t.Fatal("the faulty re-sweep added no flips; the union comparison is vacuous")
			}
			for _, w := range []int{2, 4} {
				got, gotUnion, gotAdded := profileAtWorkers(t, w, bufPages, tc.cfg, tc.fault)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("profile at %d workers differs from 1-worker reference (rows %d vs %d, flips %d vs %d)",
						w, len(got.Rows), len(ref.Rows), got.TotalFlips(), ref.TotalFlips())
				}
				if gotAdded != refAdded || !reflect.DeepEqual(refUnion, gotUnion) {
					t.Fatalf("ReprofileUnion at %d workers differs from 1-worker reference (added %d vs %d, flips %d vs %d)",
						w, gotAdded, refAdded, gotUnion.TotalFlips(), refUnion.TotalFlips())
				}
			}
		})
	}
}
