package serve

import (
	"sort"

	"rowhammer/internal/splitmix"
)

// The ServeReport timeline must be deterministic for a fixed seed at
// any worker count, but real queue/latency measurements depend on the
// scheduler, the core count and the attack's wall-clock interleaving.
// So the report's QPS/latency trajectory comes from a discrete-event
// simulation in virtual time: a canonical single-executor server with
// the same batching policy (work-conserving: when the executor frees,
// its batch is whatever waits, capped at BatchMax; a bounded queue
// sheds the excess), driven by a seeded arrival stream and a fixed
// batch cost model. Hot-swap publishes show up as an initial executor
// stall.
// Real wall-clock numbers are still collected (LiveStats) — they feed
// the benchmarks, never the report.

// SimConfig parameterizes one simulated measurement window.
type SimConfig struct {
	// Seed fixes the arrival stream.
	Seed int64
	// Requests is the window's offered load (default 512).
	Requests int
	// MeanArrivalNs is the mean inter-arrival gap; gaps are uniform in
	// [mean/2, 3·mean/2) (default 150µs ≈ 6.7k offered QPS).
	MeanArrivalNs int64
	// CostBaseNs and CostSampleNs model one engine invocation:
	// base + n·sample virtual nanoseconds for a batch of n (defaults
	// 300µs + 40µs/sample — micro-batching amortizes the base).
	CostBaseNs   int64
	CostSampleNs int64
	// BatchMax / QueueDepth mirror the server's batching policy
	// (defaults 32 / 128).
	BatchMax   int
	QueueDepth int
	// StallNs keeps the executor busy from virtual time zero — the
	// repack pause injected by hot-swap publishes in this window.
	StallNs int64
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Requests <= 0 {
		c.Requests = 512
	}
	if c.MeanArrivalNs <= 0 {
		c.MeanArrivalNs = 150_000
	}
	if c.CostBaseNs <= 0 {
		c.CostBaseNs = 300_000
	}
	if c.CostSampleNs <= 0 {
		c.CostSampleNs = 40_000
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	return c
}

// SimResult is one window's simulated service quality.
type SimResult struct {
	Served, Shed int
	Batches      int
	MeanBatch    float64
	// MakespanNs spans virtual time zero to the last batch completion.
	MakespanNs int64
	// QPS is served requests per virtual second.
	QPS float64
	// P50Ns and P99Ns are exact quantiles over per-request virtual
	// latencies (arrival to batch completion).
	P50Ns, P99Ns int64
}

// Simulate runs the canonical single-executor server over one seeded
// arrival stream. Everything is integer virtual time — byte-identical
// output on every platform and at any real worker count.
func Simulate(cfg SimConfig) SimResult {
	cfg = cfg.withDefaults()
	rng := splitmix.Stream(uint64(cfg.Seed)*2862933555777941757 + 3037000493)
	arrivals := make([]int64, cfg.Requests)
	t := int64(0)
	for i := range arrivals {
		gap := cfg.MeanArrivalNs/2 + int64(rng.Float64()*float64(cfg.MeanArrivalNs))
		t += gap
		arrivals[i] = t
	}

	var waiting []int64
	next := 0 // next arrival index
	free := cfg.StallNs
	shed := 0
	batches := 0
	var lats []int64

	// admit moves every arrival at or before now into the wait queue,
	// shedding beyond QueueDepth.
	admit := func(now int64) {
		for next < len(arrivals) && arrivals[next] <= now {
			if len(waiting) >= cfg.QueueDepth {
				shed++
			} else {
				waiting = append(waiting, arrivals[next])
			}
			next++
		}
	}

	for {
		if len(waiting) == 0 {
			if next >= len(arrivals) {
				break
			}
			admit(arrivals[next])
			continue
		}
		// A batch starts when the executor is free and the oldest
		// request has arrived, and takes whatever waits at that moment.
		start := max(waiting[0], free)
		admit(start)
		n := min(len(waiting), cfg.BatchMax)
		end := start + cfg.CostBaseNs + int64(n)*cfg.CostSampleNs
		for _, a := range waiting[:n] {
			lats = append(lats, end-a)
		}
		waiting = append(waiting[:0:0], waiting[n:]...)
		free = end
		batches++
	}

	res := SimResult{
		Served:     len(lats),
		Shed:       shed,
		Batches:    batches,
		MakespanNs: free,
	}
	if batches > 0 {
		res.MeanBatch = float64(res.Served) / float64(batches)
	}
	if free > 0 {
		res.QPS = float64(res.Served) / (float64(free) / 1e9)
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.P50Ns = lats[(len(lats)-1)*50/100]
		res.P99Ns = lats[(len(lats)-1)*99/100]
	}
	return res
}
