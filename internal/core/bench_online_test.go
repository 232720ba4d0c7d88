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
// One op is one complete online attack against a fresh system.
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
}
