package core

import (
	"fmt"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/profile"
	"rowhammer/internal/tensor"
)

// BenchmarkExecuteOnline measures the full online phase — SPOILER
// verification, bank clustering, hammer templating of every row in both
// polarities, placement planning, massaging, and the hammer/readback —
// over a buffer-size sweep from the paper's 128 MB profiling floor
// (32768 pages) toward the Eq. 2 scale, at 1/2/4 templating workers.
// One op is one complete online attack against a fresh system. The
// warmfaultyA2 cases time the fleet engine's warm faulty path instead
// (benchWarmFaultyA2).
func BenchmarkExecuteOnline(b *testing.B) {
	const filePages = 256
	file, reqs := profile.SyntheticWorkload(filePages, 3)

	for _, bufPages := range []int{32768, 65536, 131072, 262144} {
		for _, workers := range []int{1, 2, 4} {
			if bufPages > 32768 && workers == 2 {
				continue // sweep the buffer size at the 1/4 endpoints only
			}
			name := fmt.Sprintf("pages%d/workers%d", bufPages, workers)
			b.Run(name, func(b *testing.B) {
				prev := tensor.SetMaxWorkers(workers)
				defer tensor.SetMaxWorkers(prev)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					mod, err := dram.NewModuleForSize(
						bufPages*memsys.PageSize+(32<<20), dram.PaperDDR3(), 77)
					if err != nil {
						b.Fatal(err)
					}
					sys := memsys.NewSystem(mod)
					b.StartTimer()
					res, err := ExecuteOnline(sys, file, reqs, OnlineConfig{
						BufferPages:    bufPages,
						Sides:          2,
						Intensity:      1,
						MeasureSeed:    7,
						WeightFileName: "bench-weights.bin",
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.NMatch == 0 {
						b.Fatal("benchmark workload matched no requirement")
					}
				}
			})
		}
	}
	b.Run("warmfaultyA2", benchWarmFaultyA2)
}

// benchWarmFaultyA2 measures the fleet engine's warm faulty path: a
// 32,768-page template cached from a pristine 192 MB A2 module (DDR3,
// 1.92 flips per page) under a 0.3 flip-fail fault model; one op is
// RobustOnlineConfig's online stage on the same System reset to that
// identity. The module has no room to double the buffer, so both
// re-templating passes re-sweep it.
func benchWarmFaultyA2(b *testing.B) {
	const filePages = 256
	file, reqs := profile.SyntheticWorkload(filePages, 3)
	device := tableIDevice(b, "A2")
	fault := dram.FaultModel{FlipFailProb: 0.3, Seed: 5}
	cfg := RobustOnlineConfig(filePages)
	cfg.MeasureSeed = 7
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("pages%d/workers%d", cfg.BufferPages, workers), func(b *testing.B) {
			prev := tensor.SetMaxWorkers(workers)
			defer tensor.SetMaxWorkers(prev)
			mod, err := dram.NewModuleForSize(192<<20, device, 101)
			if err != nil {
				b.Fatal(err)
			}
			sys := memsys.NewSystem(mod)
			sys.InjectFaults(fault)
			attacker := sys.NewProcess()
			base, err := attacker.Mmap(cfg.BufferPages)
			if err != nil {
				b.Fatal(err)
			}
			tmpl, err := profile.ProfileBuffer(sys, attacker, base, cfg.BufferPages, profile.Config{
				Sides: cfg.Sides, Intensity: cfg.Intensity, MeasureSeed: cfg.MeasureSeed,
			})
			if err != nil {
				b.Fatal(err)
			}
			tmpl.PrimeIndex()
			warm := cfg
			warm.Profile = tmpl
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys.Reset(device, 101)
				sys.InjectFaults(fault)
				b.StartTimer()
				res, err := ExecuteOnline(sys, file, reqs, warm)
				if err != nil {
					b.Fatal(err)
				}
				if rt := res.Report.Retemplates; len(rt) != 2 || rt[0].Grew || rt[1].Grew {
					b.Fatalf("benchmark workload took re-templating passes %+v, want two re-sweeps", rt)
				}
			}
		})
	}
}
