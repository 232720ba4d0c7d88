package campaign

import (
	"fmt"
	"testing"

	"rowhammer/internal/core"
	"rowhammer/internal/profile"
)

// benchFleet builds the 16-campaign/4-SKU sweep the campaign engine is
// measured on: a hot SKU (F1, heavy 4096-page templating buffer) swept
// by 7 attack variants, and three light SKUs (A1, E1, I1, 1024-page
// buffers) with 3 variants each. With shared=true the variants of an
// SKU attack one module identity — the realistic fleet shape where the
// cache collapses 16 templatings to 4; with shared=false every campaign
// gets a unique module seed, isolating pure pipelining.
func benchFleet(b *testing.B, shared bool) []Job {
	b.Helper()
	type sku struct {
		dev      string
		size     int
		bufPages int
		count    int
	}
	skus := []sku{
		{"F1", 64 << 20, 4096, 7},
		{"A1", 16 << 20, 1024, 3},
		{"E1", 16 << 20, 1024, 3},
		{"I1", 16 << 20, 1024, 3},
	}
	var jobs []Job
	for si, s := range skus {
		for v := 0; v < s.count; v++ {
			seed := int64(100 + si)
			if !shared {
				seed = int64(1000 + len(jobs))
			}
			file, reqs := profile.SyntheticWorkload(64, int64(10*si+v))
			jobs = append(jobs, Job{
				Name:       fmt.Sprintf("%s-v%d", s.dev, v),
				WeightFile: file,
				Reqs:       reqs,
				Module: ModuleSpec{
					Device:    tableIDevice(b, s.dev),
					SizeBytes: s.size,
					Seed:      seed,
				},
				Online: core.OnlineConfig{
					BufferPages: s.bufPages,
					Sides:       2,
					Intensity:   1,
					MeasureSeed: 7,
				},
			})
		}
	}
	return jobs
}

// BenchmarkFleetSweep measures fleet throughput three ways: the serial
// reference loop (one RunCampaign per job, no cache, no pooling), the
// pipelined engine without template sharing (unique module seeds), and
// the pipelined engine with the cross-campaign cache (shared module
// identities). One op is the full 16-campaign sweep; each op starts
// from a cold cache so the measurement includes every template the
// configuration cannot avoid.
func BenchmarkFleetSweep(b *testing.B) {
	const arenaCap = 256 << 20

	b.Run("Serial", func(b *testing.B) {
		jobs := benchFleet(b, true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for ji, j := range jobs {
				if r := RunCampaign(ji, j); r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("Pipelined/workers=%d", workers), func(b *testing.B) {
			jobs := benchFleet(b, false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sum := Run(jobs, Config{Workers: workers, MaxArenaBytes: arenaCap}); sum.Failed != 0 {
					b.Fatalf("%d campaigns failed", sum.Failed)
				}
			}
		})
		b.Run(fmt.Sprintf("PipelinedCache/workers=%d", workers), func(b *testing.B) {
			jobs := benchFleet(b, true)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sum := Run(jobs, Config{Workers: workers, MaxArenaBytes: arenaCap})
				if sum.Failed != 0 {
					b.Fatalf("%d campaigns failed", sum.Failed)
				}
				if sum.CacheHits != len(jobs)-4 {
					b.Fatalf("CacheHits = %d, want %d", sum.CacheHits, len(jobs)-4)
				}
			}
		})
	}
}
