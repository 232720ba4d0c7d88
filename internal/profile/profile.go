package profile

import (
	"fmt"
	"sort"
	"sync"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/sidechan"
	"rowhammer/internal/tensor"
)

// CellFlip is one reproducible bit flip within a 4 KB page.
type CellFlip struct {
	// Offset is the byte offset within the page.
	Offset int
	// Bit is the bit index within that byte (0 = LSB).
	Bit int
	// Dir is the flip direction.
	Dir dram.FlipDirection
}

// PageFlips is the flip template of one buffer page.
type PageFlips struct {
	// BufferPage is the page index within the attacker buffer.
	BufferPage int
	// Flips lists the reproducible flips found by profiling.
	Flips []CellFlip
}

// VictimRow is one profiled DRAM row: its two OS pages and the
// aggressor rows that disturb it.
type VictimRow struct {
	// Pages are the two page halves of the 8 KB row.
	Pages [2]PageFlips
	// AggressorVaddrs are page-aligned virtual addresses, one per
	// aggressor row, that the online phase hammers. They must stay
	// mapped in the attacker's address space.
	AggressorVaddrs []int
	// Sides is the hammer pattern width used to profile this row.
	Sides int
	// Intensity is the normalized hammer intensity used.
	Intensity float64
}

// FlipCount returns the total flips across both halves.
func (v *VictimRow) FlipCount() int {
	return len(v.Pages[0].Flips) + len(v.Pages[1].Flips)
}

// Profile is the result of templating an attacker buffer.
type Profile struct {
	// BufBase is the buffer's base virtual address.
	BufBase int
	// BufPages is the buffer length in pages.
	BufPages int
	// Rows lists every profiled victim row (flippy or not).
	Rows []VictimRow
	// aggressorBits marks buffer pages that belong to aggressor rows,
	// one bit per buffer page.
	aggressorBits []uint64
	// victimIdx maps buffer page → packed row*2+half, −1 when the page
	// is not a profiled victim half. Flat slices instead of maps: a
	// multi-GB buffer has millions of victim pages and the per-entry map
	// overhead dominated profile assembly.
	victimIdx []int32
	// flipIndex is the inverted flip inventory built lazily by
	// PlanPlacement, indexed by cellID = (Offset·8 + Bit)·2 + (Dir − 1):
	// each of a page's cellCount cells lists the packed (row*2+half)
	// candidates in ascending order. A full build lays the lists out in
	// one flat array, each capped at its length (see buildFlipIndex).
	flipIndex [][]int32
	// indexedRows counts how many Rows the memoized flipIndex covers;
	// rows appended by adaptive re-templating are indexed incrementally
	// on the next buildFlipIndex call.
	indexedRows int
	// frames is the buffer's memsys.FrameDigest when it was templated:
	// aggressor vaddrs and buffer pages are positional, so the template
	// holds only where the buffer maps the same frames (CheckMapping).
	frames uint64
	// origin is where the profile came from when it is the unmodified
	// result of one ProfileBuffer sweep started on untouched pass
	// counters, nil otherwise (see ReplaySweep).
	origin *sweepOrigin
}

// sweepOrigin is the state a templating sweep's result is a pure
// function of, beyond the buffer's mapping: the module identity, its
// fault model and the sweep configuration, with every pass counter at 0.
type sweepOrigin struct {
	geom   dram.Geometry
	device dram.DeviceProfile
	seed   int64
	fault  dram.FaultModel
	cfg    Config
}

func originOf(m *dram.Module, cfg Config) sweepOrigin {
	return sweepOrigin{m.Geometry(), m.Profile(), m.Seed(), m.FaultModelInstalled(), cfg}
}

// PrimeIndex builds the inverted flip inventory eagerly. A profile
// published to a cross-campaign cache must be primed first: after
// priming, PlanPlacement is a pure read of the profile and any number
// of campaigns can plan against the shared copy concurrently.
func (p *Profile) PrimeIndex() { p.buildFlipIndex() }

// Clone returns a deep copy that shares no mutable state with the
// receiver. Campaigns that may re-template (ExtendProfile or
// ReprofileUnion append rows and union flips in place) must clone a
// cached profile before mutating it, or they would corrupt every other
// campaign holding the shared copy. The flip index is not copied; the
// clone rebuilds it lazily on first plan.
func (p *Profile) Clone() *Profile {
	c := &Profile{
		BufBase:       p.BufBase,
		BufPages:      p.BufPages,
		Rows:          make([]VictimRow, len(p.Rows)),
		aggressorBits: append([]uint64(nil), p.aggressorBits...),
		victimIdx:     append([]int32(nil), p.victimIdx...),
		frames:        p.frames,
		origin:        p.origin,
	}
	for i := range p.Rows {
		r := p.Rows[i]
		r.AggressorVaddrs = append([]int(nil), r.AggressorVaddrs...)
		for half := 0; half < 2; half++ {
			r.Pages[half].Flips = append([]CellFlip(nil), r.Pages[half].Flips...)
		}
		c.Rows[i] = r
	}
	return c
}

// CheckMapping returns an error unless attacker maps the profile's
// buffer onto the frames it was templated on. Every process maps its
// first buffer at the same virtual base, so a template drawn on a
// System that was not pristine passes a base-and-length check while its
// aggressor vaddrs name other DRAM rows.
func (p *Profile) CheckMapping(attacker *memsys.Process) error {
	d, err := attacker.FrameDigest(p.BufBase, p.BufPages)
	if err != nil {
		return fmt.Errorf("profile: buffer mapping: %w", err)
	}
	if d != p.frames {
		return fmt.Errorf("profile: buffer %#x/%d pages maps other frames than it was templated on", p.BufBase, p.BufPages)
	}
	return nil
}

// Config controls profiling.
type Config struct {
	// Sides is the hammer pattern: 2 = double-sided (DDR3), ≥3 =
	// n-sided (DDR4 with TRR; the paper uses 15 for profiling and 7
	// online).
	Sides int
	// Intensity is the normalized per-aggressor activation budget.
	Intensity float64
	// MeasureSeed seeds the side-channel noise.
	MeasureSeed int64
	// SkipSpoilerCheck bypasses the contiguity verification (tests).
	SkipSpoilerCheck bool
}

// ensurePages grows the victim/aggressor page indexes through buffer
// page n−1.
func (p *Profile) ensurePages(n int) {
	for len(p.victimIdx) < n {
		p.victimIdx = append(p.victimIdx, -1)
	}
	for len(p.aggressorBits) < (n+63)/64 {
		p.aggressorBits = append(p.aggressorBits, 0)
	}
}

func (p *Profile) setVictimPage(page, row, half int) {
	p.ensurePages(page + 1)
	p.victimIdx[page] = int32(row*2 + half)
}

// victimPageAt returns the (row, half) a buffer page was profiled as.
func (p *Profile) victimPageAt(page int) (int, int, bool) {
	if page < 0 || page >= len(p.victimIdx) || p.victimIdx[page] < 0 {
		return 0, 0, false
	}
	v := p.victimIdx[page]
	return int(v / 2), int(v % 2), true
}

func (p *Profile) setAggressorPage(page int) {
	p.ensurePages(page + 1)
	p.aggressorBits[page>>6] |= 1 << (uint(page) & 63)
}

// ProfileBuffer templates the attacker buffer: it verifies physical
// contiguity via SPOILER, groups row chunks into banks via row-buffer
// conflicts, hammers victim rows with the configured pattern in both
// data polarities, and records every reproducible flip.
func ProfileBuffer(sys *memsys.System, attacker *memsys.Process, bufBase, bufPages int, cfg Config) (*Profile, error) {
	if cfg.Sides < 2 {
		return nil, fmt.Errorf("profile: need at least 2 sides, got %d", cfg.Sides)
	}
	if cfg.Intensity <= 0 || cfg.Intensity > 1 {
		return nil, fmt.Errorf("profile: intensity must be in (0,1], got %v", cfg.Intensity)
	}
	if bufPages%2 != 0 {
		return nil, fmt.Errorf("profile: buffer must be a whole number of 8KB rows")
	}
	frames, err := attacker.FrameDigest(bufBase, bufPages)
	if err != nil {
		return nil, fmt.Errorf("profile: buffer: %w", err)
	}
	var origin *sweepOrigin
	if mod := sys.Module(); mod.PassesUntouched() {
		o := originOf(mod, cfg)
		origin = &o
	}
	meas := sidechan.NewMeasurer(sys, cfg.MeasureSeed)

	// SPOILER resolves contiguity at a 256-page (1 MB) alias period;
	// buffers smaller than two periods cannot produce the peak
	// progression the detector needs.
	if !cfg.SkipSpoilerCheck && bufPages > 2*sidechan.SpoilerAlias {
		timings, err := meas.SpoilerSweep(attacker, bufBase, bufPages)
		if err != nil {
			return nil, fmt.Errorf("profile: spoiler sweep: %w", err)
		}
		runs := sidechan.DetectContiguousRuns(timings, sidechan.SpoilerAlias)
		covered := 0
		for _, r := range runs {
			covered += r.Pages
		}
		if covered < bufPages/2 {
			return nil, fmt.Errorf("profile: buffer not physically contiguous (%d of %d pages)", covered, bufPages)
		}
	}

	// Row chunks: 8 KB each.
	numChunks := bufPages / 2
	chunkVaddrs := make([]int, numChunks)
	for i := range chunkVaddrs {
		chunkVaddrs[i] = bufBase + i*dram.RowBytes
	}
	clusters, err := meas.ClusterByBank(attacker, chunkVaddrs)
	if err != nil {
		return nil, fmt.Errorf("profile: bank clustering: %w", err)
	}

	p := &Profile{
		BufBase:  bufBase,
		BufPages: bufPages,
		frames:   frames,
		origin:   origin,
	}
	p.ensurePages(bufPages)

	// Build the experiment list in the engine's canonical order: clusters
	// in discovery order, victims ascending within each cluster. Each
	// experiment is assigned a phase color such that experiments sharing
	// a phase have disjoint row footprints (see experiment); phases run
	// one after another, each fanned out over the worker pool.
	phases := 5
	if cfg.Sides > 2 {
		phases = 2
	}
	// Pre-size the experiment list, phase lists and row storage from the
	// cluster shapes: a 4M-page sweep holds ~2M experiments, and letting
	// append regrow those multi-hundred-MB slices would spend more time
	// zeroing fresh backing arrays than hammering.
	nExp, victimsPer := 0, 1
	if cfg.Sides > 2 {
		victimsPer = cfg.Sides - 1
	}
	for _, cluster := range clusters {
		if len(cluster) < 3 {
			continue
		}
		if cfg.Sides == 2 {
			nExp += len(cluster) - 2
		} else if window := 2*cfg.Sides - 1; len(cluster) >= window {
			nExp += (len(cluster)-window)/(window-1) + 1
		}
	}
	exps := make([]experiment, 0, nExp)
	phaseLists := make([][]int, phases)
	for i := range phaseLists {
		phaseLists[i] = make([]int, 0, nExp/phases+1)
	}
	p.Rows = make([]VictimRow, 0, nExp*victimsPer)
	for _, cluster := range clusters {
		sort.Ints(cluster) // ascending virtual = ascending row within bank
		if len(cluster) < 3 {
			continue
		}
		if cfg.Sides == 2 {
			// Double-sided: every interior row is a victim once.
			for k := 1; k < len(cluster)-1; k++ {
				ph := (k - 1) % phases
				phaseLists[ph] = append(phaseLists[ph], len(exps))
				exps = append(exps, experiment{cluster: cluster, k: k})
			}
		} else {
			// n-sided: alternating aggressor/victim rows, windows of
			// cfg.Sides aggressors stepped so each odd position is a
			// victim exactly once.
			window := 2*cfg.Sides - 1
			w := 0
			for start := 0; start+window <= len(cluster); start += window - 1 {
				ph := w % phases
				w++
				phaseLists[ph] = append(phaseLists[ph], len(exps))
				exps = append(exps, experiment{cluster: cluster, k: start})
			}
		}
	}

	workers := tensor.MaxWorkers()
	for _, list := range phaseLists {
		list := list
		tensor.ParallelChunks(len(list), workers, func(lo, hi int) {
			for x := lo; x < hi; x++ {
				e := &exps[list[x]]
				e.rows, e.err = runExperiment(sys, attacker, bufBase, e.cluster, e.k, cfg)
			}
		})
	}

	// Surface the first failure in canonical experiment order so the
	// returned error does not depend on scheduling.
	for i := range exps {
		if exps[i].err != nil {
			return nil, exps[i].err
		}
	}

	// Assemble the profile in canonical order — the same Rows ordering
	// the sequential engine produced.
	for i := range exps {
		rows := exps[i].rows
		for _, r := range rows {
			idx := len(p.Rows)
			p.Rows = append(p.Rows, r)
			for half := 0; half < 2; half++ {
				p.setVictimPage(r.Pages[half].BufferPage, idx, half)
			}
		}
		if len(rows) > 0 {
			for _, ac := range rows[0].AggressorVaddrs {
				base := (ac - bufBase) / memsys.PageSize
				p.setAggressorPage(base)
				p.setAggressorPage(base + 1)
			}
		}
	}
	return p, nil
}

// experiment is one hammer experiment: fill the victim rows and
// aggressor rows, hammer, read the victims back — in both polarities.
// Given exclusive access to its row footprint, an experiment is a pure
// function of (cluster, k, cfg): the fills erase whatever earlier
// experiments left in its rows, and the module's weak cells are a fixed
// function of (bank, row). Experiments with disjoint footprints
// therefore commute, so any schedule that never overlaps two
// conflicting experiments in time yields bit-identical profiles — the
// engine guarantees that with phase coloring.
//
// Footprints: a double-sided experiment at victim index k touches rows
// [cluster[k-1]−1, cluster[k+1]+1] (fills plus hammer disturb-writes
// into the aggressors' outer neighbors), and cluster rows are strictly
// ascending, so experiments ≥ 5 victim indices apart are disjoint —
// phase = (k−1) mod 5. An n-sided window (2·sides−1 ≥ 5 rows) conflicts
// only with its immediate neighbor windows, so alternating windows
// suffice — phase = window index mod 2.
type experiment struct {
	cluster []int // sorted same-bank chunk vaddrs (shared, read-only)
	k       int   // double-sided: victim index; n-sided: window start
	rows    []VictimRow
	err     error
}

// polarityBytes are the two fill polarities every experiment runs.
var polarityBytes = [2]byte{0x00, 0xFF}

// expScratch is the per-worker reusable scratch of the experiment loop:
// the aggressor row translation buffer, the victim/aggressor chunk
// lists, and the flip accumulator. Pooled so the steady-state profiling
// loop allocates only its outputs.
type expScratch struct {
	rowBuf  []int
	victims []int
	aggrs   []int
	flips   []CellFlip
	segs    [][2][2][2]int // [victim][half][polarity] = {start, end} into flips
}

var scratchPool = sync.Pool{New: func() any { return new(expScratch) }}

// fillChunk sets both halves of an 8 KB chunk to the polarity byte —
// two O(1) constant-page demotes on a sparse module, no 4 KB streaming.
func fillChunk(p *memsys.Process, vaddr int, v byte) error {
	if err := p.FillPage(vaddr, v); err != nil {
		return err
	}
	return p.FillPage(vaddr+memsys.PageSize, v)
}

// runExperiment executes one hammer experiment and returns the profiled
// victim rows. Only the returned rows and their flip slices are
// allocated; everything else comes from pooled scratch.
func runExperiment(sys *memsys.System, attacker *memsys.Process, bufBase int, cluster []int, k int, cfg Config) ([]VictimRow, error) {
	sc := scratchPool.Get().(*expScratch)
	defer scratchPool.Put(sc)
	sc.victims = sc.victims[:0]
	sc.aggrs = sc.aggrs[:0]
	if cfg.Sides == 2 {
		sc.victims = append(sc.victims, cluster[k])
		sc.aggrs = append(sc.aggrs, cluster[k-1], cluster[k+1])
	} else {
		window := 2*cfg.Sides - 1
		for i := 0; i < window; i++ {
			if i%2 == 0 {
				sc.aggrs = append(sc.aggrs, cluster[k+i])
			} else {
				sc.victims = append(sc.victims, cluster[k+i])
			}
		}
	}
	nv := len(sc.victims)
	if cap(sc.segs) < nv {
		sc.segs = make([][2][2][2]int, nv)
	}
	sc.segs = sc.segs[:nv]
	sc.flips = sc.flips[:0]

	for pi, polarity := range polarityBytes {
		for _, vc := range sc.victims {
			if err := fillChunk(attacker, vc, polarity); err != nil {
				return nil, fmt.Errorf("profile: fill victim: %w", err)
			}
		}
		for _, ac := range sc.aggrs {
			if err := fillChunk(attacker, ac, polarityBytes[1-pi]); err != nil {
				return nil, fmt.Errorf("profile: fill aggressor: %w", err)
			}
		}
		if err := hammerRowsInto(sys, attacker, sc.aggrs, cfg.Intensity, &sc.rowBuf); err != nil {
			return nil, err
		}
		dir := dram.ZeroToOne
		if polarity == 0xFF {
			dir = dram.OneToZero
		}
		// Scan victims for flipped bits. A page still in constant state
		// at its fill polarity provably holds zero flips and costs
		// nothing; a patched page whose base is the polarity yields its
		// patch entries; an arena page is scanned in place with the
		// vectorized mismatch kernel — a clean 4 KB page costs ~128 AVX2
		// compares.
		for vi, vc := range sc.victims {
			for half := 0; half < 2; half++ {
				start := len(sc.flips)
				err := attacker.PageDiff(vc+half*memsys.PageSize, polarity, func(off int, diff byte) {
					for bit := 0; bit < 8; bit++ {
						if diff&(1<<bit) != 0 {
							sc.flips = append(sc.flips, CellFlip{Offset: off, Bit: bit, Dir: dir})
						}
					}
				})
				if err != nil {
					return nil, err
				}
				sc.segs[vi][half][pi] = [2]int{start, len(sc.flips)}
			}
		}
	}

	rows := make([]VictimRow, nv)
	for vi, vc := range sc.victims {
		rows[vi] = VictimRow{
			AggressorVaddrs: append([]int(nil), sc.aggrs...),
			Sides:           cfg.Sides,
			Intensity:       cfg.Intensity,
		}
		for half := 0; half < 2; half++ {
			rows[vi].Pages[half].BufferPage = (vc-bufBase)/memsys.PageSize + half
			s0 := sc.segs[vi][half][0]
			s1 := sc.segs[vi][half][1]
			n := (s0[1] - s0[0]) + (s1[1] - s1[0])
			if n == 0 {
				continue
			}
			fl := make([]CellFlip, 0, n)
			fl = append(fl, sc.flips[s0[0]:s0[1]]...)
			fl = append(fl, sc.flips[s1[0]:s1[1]]...)
			rows[vi].Pages[half].Flips = fl
		}
	}
	return rows, nil
}

// hammerRowsInto is the scratch-buffer core of HammerRows: rowBuf is
// reused across calls so the hot loop performs no allocation.
func hammerRowsInto(sys *memsys.System, p *memsys.Process, aggressorVaddrs []int, intensity float64, rowBuf *[]int) error {
	bank, err := aggressorRowsInto(sys, p, aggressorVaddrs, rowBuf)
	if err != nil {
		return err
	}
	sys.Module().HammerQuiet(bank, *rowBuf, intensity)
	return nil
}

// aggressorRowsInto translates page-aligned aggressor addresses into
// their DRAM rows, stored in the reused *rowBuf, and returns the bank
// they all share.
func aggressorRowsInto(sys *memsys.System, p *memsys.Process, aggressorVaddrs []int, rowBuf *[]int) (int, error) {
	if len(aggressorVaddrs) == 0 {
		return 0, fmt.Errorf("profile: no aggressor rows")
	}
	geom := sys.Module().Geometry()
	bank := -1
	*rowBuf = (*rowBuf)[:0]
	for _, va := range aggressorVaddrs {
		phys, err := p.Translate(va)
		if err != nil {
			return 0, fmt.Errorf("profile: aggressor translate: %w", err)
		}
		loc := geom.LocOf(phys)
		if bank == -1 {
			bank = loc.Bank
		} else if loc.Bank != bank {
			return 0, fmt.Errorf("profile: aggressors span banks %d and %d", bank, loc.Bank)
		}
		*rowBuf = append(*rowBuf, loc.Row)
	}
	return bank, nil
}

// HammerRows translates page-aligned aggressor addresses and hammers
// the corresponding DRAM rows. All aggressors must share a bank.
func HammerRows(sys *memsys.System, p *memsys.Process, aggressorVaddrs []int, intensity float64) error {
	var rowArr [32]int
	rows := rowArr[:0]
	return hammerRowsInto(sys, p, aggressorVaddrs, intensity, &rows)
}

// TotalFlips counts every recorded flip.
func (p *Profile) TotalFlips() int {
	n := 0
	for i := range p.Rows {
		n += p.Rows[i].FlipCount()
	}
	return n
}

// FlippyPageCount counts victim pages with at least one flip.
func (p *Profile) FlippyPageCount() int {
	n := 0
	for i := range p.Rows {
		for half := 0; half < 2; half++ {
			if len(p.Rows[i].Pages[half].Flips) > 0 {
				n++
			}
		}
	}
	return n
}

// VictimPageCount counts profiled victim pages.
func (p *Profile) VictimPageCount() int { return 2 * len(p.Rows) }

// FlipsPerPageHistogram returns a histogram of flips per victim page
// (Figure 2 / Figure 6 style data).
func (p *Profile) FlipsPerPageHistogram() map[int]int {
	h := make(map[int]int)
	for i := range p.Rows {
		for half := 0; half < 2; half++ {
			h[len(p.Rows[i].Pages[half].Flips)]++
		}
	}
	return h
}

// AvgFlipsPerPage returns the mean flips per profiled victim page.
func (p *Profile) AvgFlipsPerPage() float64 {
	if p.VictimPageCount() == 0 {
		return 0
	}
	return float64(p.TotalFlips()) / float64(p.VictimPageCount())
}
