package dram

import (
	"sync/atomic"

	"rowhammer/internal/splitmix"
)

// FaultModel makes weak-cell firing probabilistic, modeling the online
// phase's real-world stochasticity: TRR sampling luck, rare flippy
// cells that need several hammer passes, and temperature/voltage drift
// (§IV-A2, §V-B). The zero value disables every fault and leaves the
// module's behavior bit-identical to the fault-free simulator.
//
// All randomness is counter-based: every draw is a pure function of
// (Seed, bank, row, pass, bit), where pass is the row's disturbance
// pass counter. The profiling engine's phase coloring hammers any given
// row in a fixed order regardless of worker count, so pass counters —
// and therefore every fault draw — are schedule-independent and results
// stay bit-identical at 1/2/4 workers. Like the weak-cell streams in
// genWeakCells, every key is pushed through the splitmix64 finalizer
// before use; raw linear keys would make nearby (bank, row, pass)
// streams shifted copies of one another and correlate the faults.
type FaultModel struct {
	// FlipFailProb is the per-pass probability that a weak cell whose
	// threshold is exceeded nevertheless fails to flip (TRR sampling,
	// marginal cells). A fresh draw happens every pass, so re-hammering
	// the row retries the coin.
	FlipFailProb float64
	// TRRJitter perturbs the effective disturbance of each victim row
	// per pass by a uniform factor in [1−TRRJitter, 1+TRRJitter],
	// modeling TRR-escape variance. Values > 0.1 can push single-sided
	// (0.5) disturbance over the 0.55 threshold floor and create
	// accidental flips outside the planned victim rows.
	TRRJitter float64
	// Seed keys the fault streams independently of the weak-cell
	// layout seed.
	Seed int64
}

// enabled reports whether any fault knob is active.
func (f FaultModel) enabled() bool {
	return f.FlipFailProb > 0 || f.TRRJitter > 0
}

// SetFaultModel installs (or, with the zero value, removes) the fault
// model. Install it before hammering; the deterministic pass counters
// start at the first disturbance after installation. Safe to call
// between hammer passes, not concurrently with them.
func (m *Module) SetFaultModel(f FaultModel) {
	m.fault = f
	if m.passes == nil && f.enabled() {
		m.passes = make([]atomic.Uint64, m.geom.Banks*m.geom.RowsPerBank)
	}
}

// PassesUntouched reports whether every pass counter still reads 0: no
// hammer has disturbed a row under a fault model since NewModule or
// Reset. A templating sweep started in that state draws exactly the
// coins any other sweep started in it draws.
func (m *Module) PassesUntouched() bool { return !m.passesAdvanced.Load() }

// PassCount returns how many disturbance passes the row has taken
// under a fault model.
func (m *Module) PassCount(bank, row int) uint64 {
	if m.passes == nil {
		return 0
	}
	return m.passes[bank*m.geom.RowsPerBank+row].Load()
}

// FaultModelInstalled returns the active fault model (zero value when
// none).
func (m *Module) FaultModelInstalled() FaultModel { return m.fault }

// faultUniform draws one uniform in [0, 1) from the counter-based fault
// stream. bit is the cell's BitInRow, or −1 for per-row draws (the TRR
// jitter).
func faultUniform(seed int64, bank, row int, pass uint64, bit int) float64 {
	h := splitmix.Mix(uint64(seed) + splitmix.Gamma*uint64(uint32(bank)+1))
	h = splitmix.Mix(h ^ (uint64(uint32(row)) + splitmix.Gamma))
	h = splitmix.Mix(h ^ (pass*splitmix.Gamma + uint64(int64(bit)+2)))
	return float64(h>>11) / (1 << 53)
}
