package core

import (
	"reflect"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/profile"
)

// replayCase is one warm, faulty, non-growing online run of
// TestRetemplateReplayMatchesSweep: a template drawn on one system, then
// ExecuteOnline with it on a pristine system of the same identity.
type replayCase struct {
	name string
	// templateFault is installed before templating; onlineFault before
	// the online stage.
	templateFault, onlineFault dram.FaultModel
	// advanceFirst hammers a pair of rows under the fault model before
	// templating, so the template starts on advanced pass counters.
	advanceFirst bool
	// unionFirst re-sweeps the template once with ReprofileUnion.
	unionFirst bool
	passes     int
	// replays is how many re-templating passes must be answered
	// without sweeping.
	replays int
}

// tableIDevice looks up a Table I device by name.
func tableIDevice(tb testing.TB, name string) dram.DeviceProfile {
	tb.Helper()
	for _, d := range dram.TableIProfiles() {
		if d.Name == name {
			return d
		}
	}
	tb.Fatalf("no Table I device %q", name)
	return dram.DeviceProfile{}
}

// replayModule is the F1 (DDR3, 28.77 flips per page) identity of the
// replay tests: 24 MB, so a 4096-page buffer has no room to double and
// every re-templating pass re-sweeps it.
func replayModule(t *testing.T) *memsys.System {
	t.Helper()
	mod, err := dram.NewModuleForSize(24<<20, tableIDevice(t, "F1"), 31)
	if err != nil {
		t.Fatal(err)
	}
	return memsys.NewSystem(mod)
}

// passCounts lists every row's fault pass counter.
func passCounts(sys *memsys.System) []uint64 {
	mod := sys.Module()
	g := mod.Geometry()
	out := make([]uint64, 0, g.Banks*g.RowsPerBank)
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.RowsPerBank; r++ {
			out = append(out, mod.PassCount(b, r))
		}
	}
	return out
}

// TestRetemplateReplayMatchesSweep holds a re-templating pass answered
// by profile.ReplaySweep to the sweep it stands for: the same
// OnlineResult (timing aside) and the same pass counter on every row of
// the module. Every case runs once as the engine chooses and once with
// every pass forced to sweep; the cases that must sweep check the engine
// chose to.
func TestRetemplateReplayMatchesSweep(t *testing.T) {
	const filePages = 256
	file, reqs := profile.SyntheticWorkload(filePages, 5)
	fault := dram.FaultModel{FlipFailProb: 0.3, Seed: 41}
	cases := []replayCase{
		{name: "replay", templateFault: fault, onlineFault: fault, passes: 2, replays: 1},
		{name: "three_passes", templateFault: fault, onlineFault: fault, passes: 3, replays: 1},
		{name: "advanced_counters", templateFault: fault, onlineFault: fault, advanceFirst: true, passes: 2},
		{name: "other_fault_seed", templateFault: fault, onlineFault: dram.FaultModel{FlipFailProb: 0.3, Seed: 42}, passes: 2},
		{name: "after_union", templateFault: fault, onlineFault: fault, unionFirst: true, passes: 2},
		{name: "last_pass", templateFault: fault, onlineFault: fault, passes: 1},
		{name: "single_sided_fires", templateFault: dram.FaultModel{FlipFailProb: 0.3, TRRJitter: 0.2, Seed: 41},
			onlineFault: dram.FaultModel{FlipFailProb: 0.3, TRRJitter: 0.2, Seed: 41}, passes: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := RobustOnlineConfig(filePages)
			cfg.BufferPages = 4096
			cfg.MeasureSeed = 7
			cfg.RetemplatePasses = tc.passes
			pcfg := profile.Config{Sides: cfg.Sides, Intensity: cfg.Intensity, MeasureSeed: cfg.MeasureSeed}

			tsys := replayModule(t)
			tsys.InjectFaults(tc.templateFault)
			if tc.advanceFirst {
				tsys.Module().HammerQuiet(0, []int{100, 102}, 1)
			}
			attacker := tsys.NewProcess()
			base, err := attacker.Mmap(cfg.BufferPages)
			if err != nil {
				t.Fatal(err)
			}
			tmpl, err := profile.ProfileBuffer(tsys, attacker, base, cfg.BufferPages, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.unionFirst {
				if _, err := profile.ReprofileUnion(tsys, attacker, tmpl, pcfg); err != nil {
					t.Fatal(err)
				}
			}
			tmpl.PrimeIndex()
			cfg.Profile = tmpl

			run := func(force bool) (*OnlineResult, []uint64, int) {
				replays := 0
				orig := replaySweep
				defer func() { replaySweep = orig }()
				replaySweep = func(sys *memsys.System, p *memsys.Process, prof *profile.Profile, c profile.Config) (bool, error) {
					if force {
						return false, nil
					}
					ok, err := orig(sys, p, prof, c)
					if ok {
						replays++
					}
					return ok, err
				}
				sys := replayModule(t)
				sys.InjectFaults(tc.onlineFault)
				res, err := ExecuteOnline(sys, file, reqs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res.Report.Timing = StageTiming{}
				return res, passCounts(sys), replays
			}
			got, gotPasses, replays := run(false)
			want, wantPasses, _ := run(true)

			if replays != tc.replays {
				t.Fatalf("%d re-templating passes answered without sweeping, want %d", replays, tc.replays)
			}
			if len(want.Report.Retemplates) != tc.passes {
				t.Fatalf("%d re-templating passes ran, want %d", len(want.Report.Retemplates), tc.passes)
			}
			for _, rt := range want.Report.Retemplates {
				if rt.Grew {
					t.Fatalf("pass %d grew the buffer; the case needs every pass to re-sweep", rt.Pass)
				}
			}
			if want.NMatch == 0 {
				t.Fatal("the workload matched no requirement; the comparison would be vacuous")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("online result differs from the swept run: unmatched %d vs %d, NMatch %d vs %d, retemplates %+v vs %+v",
					got.Unmatched, want.Unmatched, got.NMatch, want.NMatch, got.Report.Retemplates, want.Report.Retemplates)
			}
			if !reflect.DeepEqual(gotPasses, wantPasses) {
				t.Error("module pass counters differ from the swept run")
			}
			if r := want.Report.Retemplates; tc.replays > 0 && r[0].Unmatched == r[1].Unmatched {
				// The sweep after the replay must find what the replayed
				// coins missed, or the equality above shows nothing.
				t.Fatalf("the re-sweep after the replayed pass matched nothing new (%d unmatched)", r[1].Unmatched)
			}
		})
	}
}
