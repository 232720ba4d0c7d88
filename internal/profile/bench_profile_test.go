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

// BenchmarkReprofileUnion times one ReprofileUnion re-sweep in the
// shape of perfbench fleet's faulty identity: Table I "A2" at 192 MB
// under a 0.3 flip-fail fault model, a 32,768-page buffer templated
// double-sided with the SPOILER check on — the pass that identity runs
// twice per campaign because its buffer has no room to grow. Each
// iteration unions into a fresh clone of the first sweep (unindexed, so
// the timed work is the sweep and the union); the module's pass
// counters carry on, so every iteration draws fresh fault coins.
func BenchmarkReprofileUnion(b *testing.B) {
	const bufPages = 32768
	dev, ok := dram.ProfileByName("A2")
	if !ok {
		b.Fatal("no A2 profile")
	}
	cfg := Config{Sides: 2, Intensity: 1, MeasureSeed: 7}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("pages%d/workers%d", bufPages, workers), func(b *testing.B) {
			prev := tensor.SetMaxWorkers(workers)
			defer tensor.SetMaxWorkers(prev)
			mod, err := dram.NewModuleForSize(192<<20, dev, 105)
			if err != nil {
				b.Fatal(err)
			}
			sys := memsys.NewSystem(mod)
			sys.InjectFaults(dram.FaultModel{FlipFailProb: 0.3, Seed: 205})
			attacker := sys.NewProcess()
			base, err := attacker.Mmap(bufPages)
			if err != nil {
				b.Fatal(err)
			}
			prof, err := ProfileBuffer(sys, attacker, base, bufPages, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := prof.Clone()
				b.StartTimer()
				if _, err := ReprofileUnion(sys, attacker, c, cfg); err != nil {
					b.Fatal(err)
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
