// Package sidechan models the two timing side channels the attack's
// memory templating uses (§IV-A1, Appendix B/C):
//
//   - SPOILER: speculative store-load hazards in Intel processors leak
//     the low 8 bits of page frame numbers, so a sweep over a virtual
//     buffer shows timing peaks every 256 pages wherever the underlying
//     physical memory is contiguous (Figure 11).
//   - Row-buffer conflict: two accesses that hit the same DRAM bank but
//     different rows evict each other from the row buffer and take ~400
//     cycles instead of ~300 (Figure 12), revealing bank co-location.
//
// The measured quantities are produced by a latency model over the
// simulated physical address space; attacker code consumes only the
// timings, never the hidden virtual→physical mapping.
//
// Measurement noise is counter-based: every sample is a pure function
// of (seed, stream, measurement index), never of the order in which
// measurements are issued. That is what lets SpoilerSweep and
// ClusterByBank fan measurement batches out over the worker pool and
// still return bit-identical timings at any worker count.
package sidechan

import (
	"fmt"
	"sort"
	"sync"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/splitmix"
	"rowhammer/internal/tensor"
)

// Latency model constants (cycles).
const (
	// BaseCycles is the access latency without any conflict.
	BaseCycles = 300
	// ConflictCycles is the same-bank different-row penalty target
	// (~400 cycles in Figure 12).
	ConflictCycles = 400
	// SpoilerPeakCycles is the store-load hazard penalty on 1 MB
	// aliasing (Figure 11 peaks).
	SpoilerPeakCycles = 550
	// SpoilerAlias is the page-frame aliasing period SPOILER resolves
	// (8 bits of the PFN → 256 pages = 1 MB).
	SpoilerAlias = 256
)

// Noise stream identifiers. Each measurement family draws from its own
// stream so counters never collide across families.
const (
	streamPair    = 1 // sequential RowConflictCycles API
	streamSpoiler = 2 // SpoilerSweep, counter = page index
	streamCluster = 3 // ClusterByBank, counter = (chunk, rep, trial)
)

// mix64 is the splitmix64 finalizer applied one Gamma step past x —
// the standard construction for counter-based RNG streams.
func mix64(x uint64) uint64 { return splitmix.Mix(x + splitmix.Gamma) }

// Measurer performs side-channel timing measurements against a
// simulated system. Measurement noise is deterministic per seed: batch
// APIs (SpoilerSweep, ClusterByBank) index their noise by measurement
// position and are safe to parallelize; the single-pair APIs
// (RowConflictCycles, SameBank) consume a sequential counter and must
// be called from one goroutine.
type Measurer struct {
	sys  *memsys.System
	seed uint64
	ctr  uint64
}

// NewMeasurer builds a measurer for sys.
func NewMeasurer(sys *memsys.System, seed int64) *Measurer {
	return &Measurer{sys: sys, seed: uint64(seed)}
}

// gaussFrom returns an approximately standard-normal sample that is a
// pure function of (base, c). The variate is an Irwin–Hall sum of three
// uniforms drawn from one splitmix64 output — unit variance, bounded
// tails, and roughly 20× cheaper than Box–Muller, which matters because
// bank clustering draws half a million samples per profiling run.
func gaussFrom(base, c uint64) float64 {
	h := mix64(base ^ c*splitmix.Gamma)
	const inv = 1.0 / (1 << 21)
	s := float64(h&0x1FFFFF)*inv + float64((h>>21)&0x1FFFFF)*inv + float64(h>>43)*inv
	return (s - 1.5) * 2
}

// keyBase folds the measurement coordinates (stream, a, b) into the
// hash base consumed by gaussFrom. Callers that vary only the trial
// counter c precompute this once per measurement site.
func (m *Measurer) keyBase(stream, a, b uint64) uint64 {
	return m.seed ^ mix64(stream)<<1 ^ mix64(a) ^ mix64(b)*3
}

// gauss draws the sample keyed by the full coordinate tuple.
func (m *Measurer) gauss(stream, a, b, c uint64) float64 {
	return gaussFrom(m.keyBase(stream, a, b), c)
}

// noise draws from the sequential pair stream.
func (m *Measurer) noise(sigma float64) float64 {
	m.ctr++
	return m.gauss(streamPair, m.ctr, 0, 0) * sigma
}

// conflictMean returns the mean access latency for a bank/row pair.
func conflictMean(la, lb dram.Loc) float64 {
	if la.Bank == lb.Bank && la.Row != lb.Row {
		return ConflictCycles
	}
	return BaseCycles
}

// RowConflictCycles measures the access-time for the pair (va, vb) in
// process p: alternating reads of two same-bank, different-row
// addresses keep evicting the row buffer and run ~100 cycles slower.
func (m *Measurer) RowConflictCycles(p *memsys.Process, va, vb int) (float64, error) {
	pa, err := p.Translate(va)
	if err != nil {
		return 0, fmt.Errorf("sidechan: %w", err)
	}
	pb, err := p.Translate(vb)
	if err != nil {
		return 0, fmt.Errorf("sidechan: %w", err)
	}
	geom := m.sys.Module().Geometry()
	return conflictMean(geom.LocOf(pa), geom.LocOf(pb)) + m.noise(8), nil
}

// SameBank decides bank co-location from the median of several
// measurements.
func (m *Measurer) SameBank(p *memsys.Process, va, vb int) (bool, error) {
	const trials = 7
	ts := make([]float64, trials)
	for i := range ts {
		t, err := m.RowConflictCycles(p, va, vb)
		if err != nil {
			return false, err
		}
		ts[i] = t
	}
	sort.Float64s(ts)
	return ts[trials/2] > (BaseCycles+ConflictCycles)/2, nil
}

// SpoilerSweep measures the SPOILER store-load hazard timing for every
// page of the buffer at base. Pages whose frame number aliases the
// first page's frame (mod 256) show a peak. The sweep is measured in
// parallel batches over the worker pool; the per-page noise is indexed
// by page position, so the returned timings are identical at any
// worker count.
func (m *Measurer) SpoilerSweep(p *memsys.Process, base, pages int) ([]float64, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("sidechan: non-positive page count %d", pages)
	}
	f0, err := p.FrameOf(base)
	if err != nil {
		return nil, fmt.Errorf("sidechan: %w", err)
	}
	a0 := f0 % SpoilerAlias
	out := make([]float64, pages)
	// Per-page noise key: only the page index varies, so fold the
	// stream and unused coordinates into the base once.
	pageBase := m.seed ^ mix64(streamSpoiler)<<1 ^ mix64(0)*3
	var mu sync.Mutex
	var firstErr error
	tensor.ParallelChunks(pages, tensor.MaxWorkers(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f, err := p.FrameOf(base + i*memsys.PageSize)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			mean := float64(BaseCycles)
			if f%SpoilerAlias == a0 {
				mean = SpoilerPeakCycles
			}
			out[i] = mean + gaussFrom(pageBase^mix64(uint64(i)), 0)*15
		}
	})
	if firstErr != nil {
		return nil, fmt.Errorf("sidechan: %w", firstErr)
	}
	return out, nil
}

// Run is a detected physically contiguous region of a buffer, in pages.
type Run struct {
	// StartPage is the first buffer page of the run.
	StartPage int
	// Pages is the run length.
	Pages int
}

// DetectContiguousRuns interprets a SPOILER sweep: peaks spaced exactly
// `alias` pages apart indicate physical contiguity. It returns maximal
// runs covering consecutive equal-spaced peaks. The conservative bound
// extends each run from its first peak to one alias period past its
// last peak (clamped to the buffer).
func DetectContiguousRuns(timings []float64, alias int) []Run {
	threshold := float64(BaseCycles+SpoilerPeakCycles) / 2
	var peaks []int
	for i, t := range timings {
		if t > threshold {
			peaks = append(peaks, i)
		}
	}
	var runs []Run
	i := 0
	for i < len(peaks) {
		j := i
		for j+1 < len(peaks) && peaks[j+1]-peaks[j] == alias {
			j++
		}
		if j > i { // at least two aligned peaks
			start := peaks[i]
			end := peaks[j] + alias
			if end > len(timings) {
				end = len(timings)
			}
			runs = append(runs, Run{StartPage: start, Pages: end - start})
		}
		i = j + 1
	}
	return runs
}

// sameBankAt is the batch-indexed twin of SameBank: the median of 7
// trials whose noise is keyed by the (chunk index, representative
// index) pair being compared, not by issue order.
//
// The per-trial noise is hard-bounded: gaussFrom returns an Irwin–Hall
// variate in (−3, 3), scaled here by 8 cycles. Whenever the conflict
// mean sits farther than that 24-cycle bound from the vote threshold —
// always true for the current 100-cycle conflict margin — no trial, and
// hence no median, can cross the threshold, so the vote is returned
// without drawing. The draws are pure functions of (i, rep, trial) with
// no other consumer, so skipping them is bit-identical; clustering a
// multi-GB buffer drops ~10⁸ gaussian draws this way.
func (m *Measurer) sameBankAt(locs []dram.Loc, i, rep int) bool {
	const trials = 7
	const noiseBound = 3 * 8
	const threshold = (BaseCycles + ConflictCycles) / 2
	mean := conflictMean(locs[i], locs[rep])
	if mean-noiseBound > threshold {
		return true
	}
	if mean+noiseBound <= threshold {
		return false
	}
	base := m.keyBase(streamCluster, uint64(i), uint64(rep))
	var ts [trials]float64
	for t := 0; t < trials; t++ {
		v := mean + gaussFrom(base, uint64(t))*8
		// Insertion sort keeps the batch path allocation-free.
		k := t
		for k > 0 && ts[k-1] > v {
			ts[k] = ts[k-1]
			k--
		}
		ts[k] = v
	}
	return ts[trials/2] > (BaseCycles+ConflictCycles)/2
}

// ClusterByBank groups the given page-aligned virtual addresses into
// same-bank clusters using row-conflict measurements. Addresses are
// translated once up front; then each round promotes the first
// unplaced address to a new cluster representative and measures every
// remaining address against it as one parallel batch (7 trials each,
// median vote). The number of rounds equals the number of banks
// touched, and because the per-comparison noise is indexed by the
// (address, representative) pair, the clustering is bit-identical at
// any worker count.
func (m *Measurer) ClusterByBank(p *memsys.Process, vaddrs []int) ([][]int, error) {
	n := len(vaddrs)
	if n == 0 {
		return nil, nil
	}
	geom := m.sys.Module().Geometry()
	locs := make([]dram.Loc, n)
	for i, va := range vaddrs {
		pa, err := p.Translate(va)
		if err != nil {
			return nil, fmt.Errorf("sidechan: %w", err)
		}
		locs[i] = geom.LocOf(pa)
	}

	unplaced := make([]int, n)
	for i := range unplaced {
		unplaced[i] = i
	}
	same := make([]bool, n)
	var clusters [][]int
	for len(unplaced) > 0 {
		rep := unplaced[0]
		rest := unplaced[1:]
		tensor.ParallelChunks(len(rest), tensor.MaxWorkers(), func(lo, hi int) {
			for k := lo; k < hi; k++ {
				same[rest[k]] = m.sameBankAt(locs, rest[k], rep)
			}
		})
		cluster := []int{vaddrs[rep]}
		next := unplaced[:0]
		for _, i := range rest {
			if same[i] {
				cluster = append(cluster, vaddrs[i])
			} else {
				next = append(next, i)
			}
		}
		clusters = append(clusters, cluster)
		unplaced = next
	}
	return clusters, nil
}

// BankOfOracle exposes the true bank of a virtual address for test
// validation; attack code must not use it.
func BankOfOracle(sys *memsys.System, p *memsys.Process, va int) (int, error) {
	pa, err := p.Translate(va)
	if err != nil {
		return 0, err
	}
	return sys.Module().Geometry().LocOf(pa).Bank, nil
}
