package profile

import (
	"fmt"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/tensor"
)

func benchSetup(b *testing.B, bufPages int) (*memsys.System, *memsys.Process, int) {
	b.Helper()
	mod, err := dram.NewModuleForSize(
		bufPages*memsys.PageSize+(16<<20), dram.PaperDDR3(), 11)
	if err != nil {
		b.Fatal(err)
	}
	sys := memsys.NewSystem(mod)
	attacker := sys.NewProcess()
	base, err := attacker.Mmap(bufPages)
	if err != nil {
		b.Fatal(err)
	}
	return sys, attacker, base
}

// BenchmarkProfileBuffer measures the hammer-templating loop alone (the
// SPOILER check is skipped so the number isolates clustering + hammering
// + readback) at 1/2/4 workers.
func BenchmarkProfileBuffer(b *testing.B) {
	const bufPages = 8192
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("pages%d/workers%d", bufPages, workers), func(b *testing.B) {
			prev := tensor.SetMaxWorkers(workers)
			defer tensor.SetMaxWorkers(prev)
			sys, attacker, base := benchSetup(b, bufPages)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := ProfileBuffer(sys, attacker, base, bufPages, Config{
					Sides: 2, Intensity: 1, MeasureSeed: 5, SkipSpoilerCheck: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if p.TotalFlips() == 0 {
					b.Fatal("no flips templated")
				}
			}
		})
	}
}

// BenchmarkPlanPlacement measures requirement matching against a fixed
// profile: the needle-in-haystack search Eq. 2 sizes, over a synthetic
// requirement set of one flip on every eighth file page.
func BenchmarkPlanPlacement(b *testing.B) {
	const bufPages = 8192
	sys, attacker, base := benchSetup(b, bufPages)
	_ = sys
	prof, err := ProfileBuffer(sys, attacker, base, bufPages, Config{
		Sides: 2, Intensity: 1, MeasureSeed: 5, SkipSpoilerCheck: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	const filePages = 256
	rng := tensor.NewRNG(9)
	var reqs []PageRequirement
	for fp := 0; fp < filePages; fp += 8 {
		dir := dram.ZeroToOne
		if rng.Float64() < 0.5 {
			dir = dram.OneToZero
		}
		reqs = append(reqs, PageRequirement{
			FilePage: fp,
			Flips: []CellFlip{{
				Offset: rng.Intn(memsys.PageSize), Bit: rng.Intn(8), Dir: dir,
			}},
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanPlacement(prof, reqs, filePages); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrimeIndex times building the flip index of a 32768-page
// DDR3 template from scratch — what the campaign engine's cache leader
// does to every cold template before publishing it, and what a clone
// redoes on its first plan. Each iteration primes a fresh Clone; the
// clone itself is untimed.
func BenchmarkPrimeIndex(b *testing.B) {
	const bufPages = 32768
	sys, attacker, base := benchSetup(b, bufPages)
	prof, err := ProfileBuffer(sys, attacker, base, bufPages, Config{
		Sides: 2, Intensity: 1, MeasureSeed: 5, SkipSpoilerCheck: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := prof.Clone()
		b.StartTimer()
		c.PrimeIndex()
	}
	b.ReportMetric(float64(prof.TotalFlips()), "flips")
}
