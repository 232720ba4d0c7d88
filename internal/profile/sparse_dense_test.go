package profile

import (
	"reflect"
	"runtime"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/tensor"
)

// profileOn runs ProfileBuffer on a fresh system whose module storage
// mode and worker count are chosen by the caller. Every run starts from
// identical state (hammering mutates memory).
func profileOn(t *testing.T, dense bool, workers, bufPages int, cfg Config) *Profile {
	t.Helper()
	prev := tensor.SetMaxWorkers(workers)
	defer tensor.SetMaxWorkers(prev)
	geom := dram.GeometryForSize(bufPages*memsys.PageSize+(8<<20), 16)
	var mod *dram.Module
	var err error
	if dense {
		mod, err = dram.NewDenseModule(geom, dram.PaperDDR3(), 42)
	} else {
		mod, err = dram.NewModule(geom, dram.PaperDDR3(), 42)
	}
	if err != nil {
		t.Fatal(err)
	}
	sys := memsys.NewSystem(mod)
	attacker := sys.NewProcess()
	base, err := attacker.Mmap(bufPages)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileBuffer(sys, attacker, base, bufPages, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProfileSparseDenseIdentity pins the tentpole contract at the
// engine level: profiling a sparse module — constant-page fills, scan
// skips, copy-on-hammer materialization — yields a profile
// byte-identical to the dense oracle's, at every worker count.
func TestProfileSparseDenseIdentity(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prevProcs)

	cases := []struct {
		name string
		cfg  Config
	}{
		{"doubleSided", Config{Sides: 2, Intensity: 1, MeasureSeed: 5, SkipSpoilerCheck: true}},
		{"nSided7", Config{Sides: 7, Intensity: 1, MeasureSeed: 5, SkipSpoilerCheck: true}},
	}
	const bufPages = 1024
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := profileOn(t, true, 1, bufPages, tc.cfg)
			if len(ref.Rows) == 0 || ref.TotalFlips() == 0 {
				t.Fatalf("dense reference profile is empty (%d rows, %d flips)", len(ref.Rows), ref.TotalFlips())
			}
			for _, w := range []int{1, 2, 4} {
				got := profileOn(t, false, w, bufPages, tc.cfg)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("sparse profile at %d workers differs from dense reference (rows %d vs %d, flips %d vs %d)",
						w, len(got.Rows), len(ref.Rows), got.TotalFlips(), ref.TotalFlips())
				}
			}
		})
	}
}
