package dram

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"rowhammer/internal/splitmix"
	"rowhammer/internal/tensor"
)

// FlipDirection is the only direction a vulnerable cell can flip in.
type FlipDirection int

// Flip directions.
const (
	ZeroToOne FlipDirection = iota + 1
	OneToZero
)

// String implements fmt.Stringer.
func (d FlipDirection) String() string {
	if d == ZeroToOne {
		return "0->1"
	}
	return "1->0"
}

// WeakCell is one vulnerable DRAM cell within a row.
type WeakCell struct {
	// BitInRow is the bit index within the 8 KB row (0 … RowBytes*8−1).
	BitInRow int
	// Dir is the cell's fixed flip direction.
	Dir FlipDirection
	// Threshold is the normalized disturbance (0 … 1] needed to flip
	// the cell; 1 corresponds to a full double-sided hammer without TRR
	// interference.
	Threshold float64
}

// FlipEvent records a bit flip that hammering caused in memory.
type FlipEvent struct {
	// Addr is the physical byte address holding the flipped bit.
	Addr int
	// Bit is the bit index within that byte (0 = LSB).
	Bit int
	// Dir is the observed flip direction.
	Dir FlipDirection
}

// Module is a simulated DRAM module: sparse, lazily materialized
// physical page storage (see sparse.go) plus a deterministic sparse map
// of vulnerable cells derived from the device profile. Untouched pages
// read as the zero fill pattern without ever allocating, so modules of
// multi-GB geometry cost memory proportional to the rows actually
// touched.
type Module struct {
	geom    Geometry
	profile DeviceProfile
	seed    int64
	store   *pageStore

	// weakCache memoizes per-row weak-cell lists, generated lazily and
	// deterministically from (seed, bank, row). weakMu guards the map so
	// hammer experiments on disjoint row ranges (the parallel templating
	// engine) can run concurrently; the cached slices themselves are
	// immutable once published. The cache is bounded: a whole-module
	// templating sweep touches every row once, and memoizing millions of
	// cell lists would make profiling RSS scale with geometry again, so
	// when the cache exceeds weakCacheLimit rows it is dropped and
	// rebuilt — cells are a pure function of (seed, bank, row), so a
	// regeneration is bit-identical.
	weakMu    sync.Mutex
	weakCache map[int64][]WeakCell
	// seenBits is weakMu-guarded scratch for duplicate-bit rejection
	// while sampling a row; dirty bits are cleared before returning.
	seenBits []uint64

	// fault is the optional probabilistic-firing model (see fault.go);
	// the zero value keeps hammering fully deterministic per cell.
	fault FaultModel
	// passCount tracks per-(bank,row) disturbance passes for the
	// counter-based fault streams; weakMu-guarded like weakCache.
	passCount map[int64]uint64
}

// weakCacheLimit bounds the memoized weak-cell rows (≈ tens of MB at
// Table I densities). Profiling sweeps revisit a row only within a
// small neighborhood of experiments, so a bounded cache keeps the hit
// rate while whole-module sweeps stay O(touched working set).
const weakCacheLimit = 32768

// NewModule builds a module with the given geometry and device profile.
// All memory starts zeroed. The seed fixes the vulnerable-cell layout.
func NewModule(geom Geometry, profile DeviceProfile, seed int64) (*Module, error) {
	return newModule(geom, profile, seed, false)
}

// NewDenseModule builds a module whose storage always materializes —
// every access runs the arena-backed slow paths and constant-page fast
// paths are disabled. It is the reference implementation the sparse-vs-
// dense byte-identity suites compare against and is not meant for
// multi-GB geometries.
func NewDenseModule(geom Geometry, profile DeviceProfile, seed int64) (*Module, error) {
	return newModule(geom, profile, seed, true)
}

func newModule(geom Geometry, profile DeviceProfile, seed int64, dense bool) (*Module, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	return &Module{
		geom:      geom,
		profile:   profile,
		seed:      seed,
		store:     newPageStore(geom.Size(), dense),
		weakCache: make(map[int64][]WeakCell),
	}, nil
}

// NewModuleForSize is a convenience wrapper using a 16-bank geometry
// covering size bytes.
func NewModuleForSize(size int, profile DeviceProfile, seed int64) (*Module, error) {
	return NewModule(GeometryForSize(size, 16), profile, seed)
}

// Geometry returns the module geometry.
func (m *Module) Geometry() Geometry { return m.geom }

// Profile returns the device profile.
func (m *Module) Profile() DeviceProfile { return m.profile }

// Size returns the capacity in bytes.
func (m *Module) Size() int { return m.geom.Size() }

// Read returns the byte at a physical address.
func (m *Module) Read(addr int) byte {
	s := m.store.state[addr>>pageShift]
	if s < 0 {
		return decodeConst(s)
	}
	return m.store.pageBytes(s)[addr&pageMask]
}

// Write stores a byte at a physical address.
func (m *Module) Write(addr int, v byte) {
	p := addr >> pageShift
	s := m.store.state[p]
	if s < 0 {
		if decodeConst(s) == v && !m.store.dense {
			return
		}
		m.store.materialize(p)[addr&pageMask] = v
		return
	}
	m.store.pageBytes(s)[addr&pageMask] = v
}

// ReadRange copies n bytes starting at addr.
func (m *Module) ReadRange(addr, n int) []byte {
	out := make([]byte, n)
	m.ReadRangeInto(addr, out)
	return out
}

// ReadRangeInto copies len(buf) bytes starting at addr into buf — the
// allocation-free twin of ReadRange for steady-state readback loops.
// Constant pages expand through the vectorized fill kernel without ever
// materializing.
func (m *Module) ReadRangeInto(addr int, buf []byte) {
	for len(buf) > 0 {
		p := addr >> pageShift
		off := addr & pageMask
		n := OSPageBytes - off
		if n > len(buf) {
			n = len(buf)
		}
		if s := m.store.state[p]; s < 0 {
			tensor.FillBytes(buf[:n], decodeConst(s))
		} else {
			copy(buf[:n], m.store.pageBytes(s)[off:off+n])
		}
		addr += n
		buf = buf[n:]
	}
}

// WriteRange stores buf starting at addr. Segments that leave a page
// equal to one constant byte keep (or return) the page in constant
// state, so bulk pattern writes — the templating fills, anonymous page
// zeroing — never materialize storage.
func (m *Module) WriteRange(addr int, buf []byte) {
	for len(buf) > 0 {
		p := addr >> pageShift
		off := addr & pageMask
		n := OSPageBytes - off
		if n > len(buf) {
			n = len(buf)
		}
		seg := buf[:n]
		if s := m.store.state[p]; s < 0 && !m.store.dense {
			if tensor.IndexMismatchByte(seg, decodeConst(s)) < 0 {
				// Segment repeats the page's constant: no-op.
				addr += n
				buf = buf[n:]
				continue
			}
			if n == OSPageBytes && tensor.IndexMismatchByte(seg[1:], seg[0]) < 0 {
				// Full page of one (different) byte: swap the constant.
				m.store.demote(p, seg[0])
				addr += n
				buf = buf[n:]
				continue
			}
		}
		copy(m.store.materialize(p)[off:off+n], seg)
		addr += n
		buf = buf[n:]
	}
}

// FillPage sets every byte of the 4 KB page at addr (page-aligned) to
// v. On a sparse module this demotes the page to constant state and
// recycles any arena cell it held — the O(1) path every templating fill
// and anonymous-page zeroing goes through.
func (m *Module) FillPage(addr int, v byte) {
	if addr&pageMask != 0 {
		panic("dram: FillPage address not page aligned")
	}
	p := addr >> pageShift
	if m.store.dense {
		tensor.FillBytes(m.store.materialize(p), v)
		return
	}
	m.store.demote(p, v)
}

// PageConstant reports whether the 4 KB page containing addr currently
// reads as a single constant byte, and which. Scan loops use it to skip
// whole pages without touching memory; a materialized page returns
// ok=false and must be read.
func (m *Module) PageConstant(addr int) (byte, bool) {
	s := m.store.state[addr>>pageShift]
	if s < 0 {
		return decodeConst(s), true
	}
	return 0, false
}

// FillRow sets every byte of a row to v.
func (m *Module) FillRow(bank, row int, v byte) {
	base := m.geom.RowBaseAddr(bank, row)
	m.FillPage(base, v)
	m.FillPage(base+OSPageBytes, v)
}

// weakCells returns the vulnerable cells of a row, generated lazily.
// The per-row RNG stream is keyed by (seed, bank, row) so the layout is
// stable regardless of query order. Safe for concurrent callers.
func (m *Module) weakCells(bank, row int) []WeakCell {
	key := int64(bank)<<32 | int64(row)
	m.weakMu.Lock()
	defer m.weakMu.Unlock()
	if cells, ok := m.weakCache[key]; ok {
		return cells
	}
	const mix = int64(-0x61C8864680B583EB) // golden-ratio mixing constant
	rng := newCellRNG(uint64(m.seed ^ (key*mix + 0x2545F4914F6CDD1D)))
	// A row holds two OS pages, so the expected weak count per row is
	// 2× the per-page average. Sample the count from a Poisson
	// distribution via inversion.
	lambda := m.profile.FlipsPerPage * 2
	count := poisson(&rng, lambda)
	cells := make([]WeakCell, 0, count)
	if m.seenBits == nil {
		m.seenBits = make([]uint64, RowBytes*8/64)
	}
	for len(cells) < count {
		bit := int(rng.Next() % (RowBytes * 8)) // exact: a power-of-two bound
		if m.seenBits[bit/64]&(1<<(bit%64)) != 0 {
			continue
		}
		m.seenBits[bit/64] |= 1 << (bit % 64)
		dir := ZeroToOne
		if rng.Float64() < 0.5 {
			dir = OneToZero
		}
		// Thresholds live in [weakThresholdFloor, 1): a full double-sided
		// hammer (disturbance 1.0) fires every weak cell, while
		// single-sided disturbance (0.5) fires none — matching the
		// observation that DDR3 flips need the sandwich pattern and that
		// victim rows adjacent to a single aggressor survive.
		cells = append(cells, WeakCell{
			BitInRow:  bit,
			Dir:       dir,
			Threshold: weakThresholdFloor + weakThresholdSpan*rng.Float64(),
		})
	}
	for _, c := range cells {
		m.seenBits[c.BitInRow/64] &^= 1 << (c.BitInRow % 64)
	}
	if len(m.weakCache) >= weakCacheLimit {
		// Drop and rebuild rather than evict: cells are pure functions of
		// (seed, bank, row), so regeneration is bit-identical and a sweep
		// past the limit costs one extra generation per row, not
		// correctness.
		m.weakCache = make(map[int64][]WeakCell)
	}
	m.weakCache[key] = cells
	return cells
}

// weakThresholdFloor/weakThresholdSpan bound weak-cell thresholds to
// [floor, floor+span): disturbance below the floor cannot fire any cell,
// which the hammer core exploits to skip victims without generating
// their cell lists.
const (
	weakThresholdFloor = 0.55
	weakThresholdSpan  = 0.45
)

// newCellRNG starts the weak-cell splitmix64 stream of one row. Keying
// one costs a single mix, versus the ~6 µs lagged-Fibonacci seeding of
// math/rand — which, at one fresh generator per row, used to dominate
// whole-buffer profiling wall-clock. The key goes through the finalizer
// before it becomes the stream start: without this, key streams that
// differ by a multiple of Gamma are shifted windows of one another —
// adjacent rows would sample near-identical cell positions, collapsing
// flip diversity across the buffer. The same finalized-key rule applies
// to every RNG keyed off structured coordinates in this package: the
// fault-injection streams in fault.go chain the identical finalizer
// over (seed, bank, row, pass, bit) for the same reason.
func newCellRNG(key uint64) splitmix.Stream { return splitmix.Stream(splitmix.Mix(key)) }

// poisson samples a Poisson variate by inversion (adequate for the
// λ ≤ ~250 this simulator uses).
func poisson(rng *splitmix.Stream, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > int(lambda*10+100) { // numeric safety net
			return k
		}
	}
}

// trrEscapeFraction models the Target Row Refresh sampler: with A
// simultaneous aggressors and a sampler that can track K of them, a
// (A−K)/A fraction of the hammer activity escapes mitigation. Patterns
// with A ≤ K are fully mitigated — the reason double-sided Rowhammer
// fails on DDR4 (§IV-A2).
func (m *Module) trrEscapeFraction(aggressors int) float64 {
	k := m.profile.TRRSamplerSize
	if k <= 0 {
		return 1
	}
	if aggressors <= k {
		return 0
	}
	return float64(aggressors-k) / float64(aggressors)
}

// Hammer activates the given aggressor rows of one bank repeatedly.
// intensity ∈ (0, 1] is the per-aggressor activation budget normalized
// to the refresh window (1 = the full hammer the paper's profiling
// uses). Victim rows are every row adjacent to an aggressor that is not
// itself an aggressor; each receives disturbance proportional to its
// adjacent aggressor count, scaled by the TRR escape fraction.
// Vulnerable cells whose threshold is exceeded and whose stored bit
// matches the cell's flip direction are flipped in memory; the returned
// events list every flip applied.
func (m *Module) Hammer(bank int, aggressorRows []int, intensity float64) []FlipEvent {
	var events []FlipEvent
	m.hammer(bank, aggressorRows, intensity, &events)
	return events
}

// HammerQuiet is Hammer without the event log. The templating engine's
// hot loop learns flips by reading the victim pages back, so collecting
// events per hammer would only be allocation churn; this variant runs
// allocation-free for patterns up to 32 aggressors. Concurrent calls on
// non-overlapping row ranges are safe: flips are read-modify-writes on
// disjoint victim rows.
func (m *Module) HammerQuiet(bank int, aggressorRows []int, intensity float64) {
	m.hammer(bank, aggressorRows, intensity, nil)
}

// hammer is the shared hammer core. Victim discovery uses small sorted
// stack scratch instead of maps: candidate victims (aggressor neighbors)
// are collected, sorted, and merged so a row sandwiched by two
// aggressors accumulates 0.5 disturbance from each.
func (m *Module) hammer(bank int, aggressorRows []int, intensity float64, events *[]FlipEvent) {
	if intensity <= 0 || len(aggressorRows) == 0 {
		return
	}
	if intensity > 1 {
		intensity = 1
	}
	var candBuf [64]int
	cands := candBuf[:0]
	if 2*len(aggressorRows) > len(candBuf) {
		cands = make([]int, 0, 2*len(aggressorRows))
	}
	var aggs rowSet
	aggs.init(aggressorRows)
	for _, r := range aggressorRows {
		for _, v := range [2]int{r - 1, r + 1} {
			if v < 0 || v >= m.geom.RowsPerBank || aggs.contains(v) {
				continue
			}
			cands = append(cands, v)
		}
	}
	sort.Ints(cands)
	escape := m.trrEscapeFraction(len(aggressorRows))
	faulty := m.fault.enabled()
	for i := 0; i < len(cands); {
		victim := cands[i]
		j := i
		// Disturbance per victim: 0.5 per adjacent aggressor, so the
		// classic double-sided sandwich reaches 1.0.
		d := 0.0
		for j < len(cands) && cands[j] == victim {
			d += 0.5
			j++
		}
		i = j
		eff := d * intensity * escape
		if eff <= 0 {
			continue
		}
		// Sub-threshold hammers cannot fire any cell (thresholds start at
		// weakThresholdFloor), so skip the victim without generating its
		// cell list. Gated on !faulty: the fault model's pass counters and
		// jitter draws must advance exactly as before.
		if !faulty && eff < weakThresholdFloor {
			continue
		}
		// Fault injection: advance the row's pass counter and apply the
		// per-pass TRR-escape jitter. Both draws come from finalized
		// counter-based streams (fault.go), so they are pure functions of
		// (seed, bank, row, pass) and independent of scheduling.
		var pass uint64
		if faulty {
			m.weakMu.Lock()
			pass = m.nextPassLocked(bank, victim)
			m.weakMu.Unlock()
			if jit := m.fault.TRRJitter; jit > 0 {
				u := faultUniform(m.fault.Seed, bank, victim, pass, -1)
				eff *= 1 + jit*(2*u-1)
				if eff <= 0 {
					continue
				}
			}
		}
		base := m.geom.RowBaseAddr(bank, victim)
		// Copy-on-hammer: the victim row's two pages stay in constant
		// state until a cell actually changes a bit. Reads against a
		// constant page decode the fill byte in place; the first real flip
		// materializes that half into the arena.
		var halves [2][]byte
		for _, cell := range m.weakCells(bank, victim) {
			if cell.Threshold > eff {
				continue
			}
			if faulty && m.fault.FlipFailProb > 0 &&
				faultUniform(m.fault.Seed, bank, victim, pass, cell.BitInRow) < m.fault.FlipFailProb {
				continue // this pass failed to fire the cell; retry next pass
			}
			byteOff := cell.BitInRow / 8
			bit := cell.BitInRow % 8
			h := byteOff >> pageShift
			page := (base >> pageShift) + h
			var cur byte
			if halves[h] != nil {
				cur = halves[h][byteOff&pageMask]
			} else if s := m.store.state[page]; s < 0 {
				cur = decodeConst(s)
			} else {
				halves[h] = m.store.pageBytes(s)
				cur = halves[h][byteOff&pageMask]
			}
			if (cur&(1<<bit) != 0) == (cell.Dir == ZeroToOne) {
				continue // bit already sits in the cell's target state
			}
			if halves[h] == nil {
				halves[h] = m.store.materialize(page)
			}
			halves[h][byteOff&pageMask] ^= 1 << bit
			if events != nil {
				*events = append(*events, FlipEvent{Addr: base + byteOff, Bit: bit, Dir: cell.Dir})
			}
		}
	}
}

// rowSet answers aggressor-membership queries in O(1) regardless of
// pattern width, replacing the linear scan that made victim discovery
// quadratic in the number of sides. Patterns up to half the table stay
// on a stack-resident open-addressed table (power-of-two size, linear
// probing); wider ones — beyond any pattern the simulator issues — fall
// back to a heap map.
type rowSet struct {
	table [64]int // row+1, 0 = empty
	big   map[int]struct{}
}

func (s *rowSet) init(rows []int) {
	if len(rows) > len(s.table)/2 {
		s.big = make(map[int]struct{}, len(rows))
		for _, r := range rows {
			s.big[r] = struct{}{}
		}
		return
	}
	for _, r := range rows {
		h := rowSetHash(r)
		for s.table[h] != 0 {
			if s.table[h] == r+1 {
				break
			}
			h = (h + 1) & (len(s.table) - 1)
		}
		s.table[h] = r + 1
	}
}

func (s *rowSet) contains(r int) bool {
	if s.big != nil {
		_, ok := s.big[r]
		return ok
	}
	for h := rowSetHash(r); s.table[h] != 0; h = (h + 1) & (len(s.table) - 1) {
		if s.table[h] == r+1 {
			return true
		}
	}
	return false
}

func rowSetHash(r int) int {
	return int(uint64(r)*0x9E3779B97F4A7C15>>58) & 63
}

// HammerDoubleSided sandwiches the victim row between two aggressors —
// the DDR3 profiling pattern.
func (m *Module) HammerDoubleSided(bank, victimRow int, intensity float64) ([]FlipEvent, error) {
	if victimRow <= 0 || victimRow >= m.geom.RowsPerBank-1 {
		return nil, fmt.Errorf("dram: victim row %d has no neighbors on both sides", victimRow)
	}
	return m.Hammer(bank, []int{victimRow - 1, victimRow + 1}, intensity), nil
}

// HammerNSided runs the TRRespass-style many-sided pattern: sides
// aggressor rows at stride 2 starting from startRow (aggressor, victim,
// aggressor, …). The paper uses 15 sides for DDR4 profiling and 7 for
// the online attack.
func (m *Module) HammerNSided(bank, startRow, sides int, intensity float64) ([]FlipEvent, error) {
	if sides < 1 {
		return nil, fmt.Errorf("dram: sides must be ≥ 1, got %d", sides)
	}
	last := startRow + 2*(sides-1)
	if startRow < 0 || last >= m.geom.RowsPerBank {
		return nil, fmt.Errorf("dram: n-sided pattern [%d..%d] out of range", startRow, last)
	}
	rows := make([]int, sides)
	for i := range rows {
		rows[i] = startRow + 2*i
	}
	return m.Hammer(bank, rows, intensity), nil
}
