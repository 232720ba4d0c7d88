package quant

import (
	"sync/atomic"

	"rowhammer/internal/tensor"
)

// The epoch engine is the torn-read-safe weight hot-swap path the
// victim-under-fire serving scenario needs: Forward must keep running
// from many goroutines while the online attack flips live weights, and
// every returned batch must match one published model state — never a
// half-repacked panel or a mix of pre- and post-flip layers.
//
// Everything a ConcurrentSafe forward reads that a code change can move
// is snapshotted into an immutable epoch: per-GEMM packed int8 panels
// plus the sx-independent factors of the fused epilogue (the folded
// conv-bias/BN-affine coefficients, which FlipBit can also hit — bias,
// gamma and beta are quantized parameters too). Readers pin the current
// epoch with two atomic ops and no lock; writers repack exactly the
// dirty slots into a fresh epoch (clean slots are shared structurally)
// and publish it with one atomic pointer swap. An epoch retires — and
// the live-epoch gauge drops — when the last pinned reader drains.
//
// Consistency contract (DESIGN §9):
//
//   - A mutation made through Exclusive is visible to every Forward
//     that pins after Exclusive returns; forwards already in flight
//     complete on the epoch they pinned. There is no intermediate
//     state: each forward sees exactly one published epoch.
//   - Legacy single-goroutine mutation (plain SetCode/FlipBit, the
//     scorer's mutate-and-revert) stays lazy: the dirty slots rebuild
//     on the next Forward/Score. Mutating WITHOUT Exclusive while other
//     goroutines run Forward remains unsupported, exactly as before.

// epochSlot is one GEMM op's snapshot: the packed weight panels and the
// per-output-channel epilogue coefficients derived from the quantized
// bias/BN parameters. Slots are immutable once published; epochs that
// did not dirty a slot share it with their predecessor.
type epochSlot struct {
	panels []int16
	// cA scales the sx·Δw base multiplier per output channel (the folded
	// BN gamma/istd term); nil means the multiplier is the base itself.
	cA []float32
	// cS is the per-channel additive shift (folded bias/BN beta term);
	// nil means zero.
	cS []float32
}

// epoch is one published model snapshot. refs counts pinned readers
// plus one reference for being the current epoch; when it drops to
// zero the epoch is retired.
type epoch struct {
	seq   uint64
	slots []epochSlot
	refs  atomic.Int64
	qm    *QModel
}

// release drops one reference; the last release retires the epoch.
func (e *epoch) release() {
	if e.refs.Add(-1) == 0 {
		e.qm.liveEpochs.Add(-1)
	}
}

// acquireEpoch returns the current epoch with a reader reference held,
// rebuilding first if any slot is dirty. The clean path is lock-free:
// one atomic flag load, one pointer load, one ref load and CAS, and a
// confirming pointer load.
//
// The pin is a CAS that refuses refs == 0: an epoch whose last
// reference already dropped has retired, and reviving it would make the
// retry's release retire it a second time (driving LiveEpochs below
// the true count). Such a reader reloads cur instead.
func (qm *QModel) acquireEpoch() *epoch {
	if qm.anyDirty.Load() {
		qm.mu.Lock()
		qm.rebuildLocked()
		qm.mu.Unlock()
	}
	for {
		ep := qm.cur.Load()
		if !ep.tryPin() {
			continue // retired between load and pin
		}
		if qm.cur.Load() == ep {
			return ep
		}
		// Superseded between load and pin; drop the stale ref and retry.
		ep.release()
	}
}

// tryPin takes a reader reference unless the epoch has already retired.
func (e *epoch) tryPin() bool {
	for {
		r := e.refs.Load()
		if r == 0 {
			return false
		}
		if e.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// readEpoch returns the current epoch without pinning it, rebuilding
// first when dirty. It is the resolution path for single-goroutine
// callers (the scorer, fallback plans): with no concurrent writer the
// epoch cannot be superseded while in use, so no reference is needed.
func (qm *QModel) readEpoch() *epoch {
	if qm.anyDirty.Load() {
		qm.mu.Lock()
		qm.rebuildLocked()
		qm.mu.Unlock()
	}
	return qm.cur.Load()
}

// Exclusive runs fn — which may mutate the bound quantizer's codes any
// way it likes — and publishes the resulting model state as a new epoch
// before returning. This is the only supported way to mutate codes
// while other goroutines call Forward: when Exclusive returns, the
// mutation is visible to every subsequently pinned forward, and every
// in-flight forward completes on the snapshot it pinned.
func (qm *QModel) Exclusive(fn func()) {
	qm.mu.Lock()
	defer qm.mu.Unlock()
	fn()
	qm.rebuildLocked()
}

// LiveEpochs reports how many published epochs have not yet retired
// (the current epoch plus any still pinned by in-flight readers). A
// drained engine always reports exactly 1 — the leak check the race
// suite asserts.
func (qm *QModel) LiveEpochs() int64 { return qm.liveEpochs.Load() }

// EpochSeq returns the sequence number of the currently published
// epoch. It advances by exactly one per publish, so serving harnesses
// can stamp which snapshot a measurement window observed.
func (qm *QModel) EpochSeq() uint64 { return qm.cur.Load().seq }

// markDirty records that parameter pi moved and which epoch slots that
// staled. Callers either hold qm.mu (Exclusive) or are the only
// goroutine touching the engine (the legacy contract).
func (qm *QModel) markDirty(pi int) {
	if pi == AllParams {
		for i := range qm.panelsDirty {
			qm.panelsDirty[i] = true
			qm.coeffsDirty[i] = true
		}
		qm.anyDirty.Store(true)
		return
	}
	touched := false
	if si := qm.paramPanelSlot[pi]; si >= 0 {
		qm.panelsDirty[si] = true
		touched = true
	}
	if si := qm.paramCoeffSlot[pi]; si >= 0 {
		qm.coeffsDirty[si] = true
		touched = true
	}
	if touched {
		qm.anyDirty.Store(true)
	}
}

// rebuildLocked repacks every dirty slot into a fresh epoch and
// publishes it. Clean slots are shared with the outgoing epoch (slices
// are immutable once published), so a single-weight flip repacks one
// layer's panels and recomputes one coefficient pair, nothing else.
// Callers hold qm.mu.
func (qm *QModel) rebuildLocked() {
	if !qm.anyDirty.Load() {
		return
	}
	old := qm.cur.Load()
	next := &epoch{
		seq:   old.seq + 1,
		slots: make([]epochSlot, len(old.slots)),
		qm:    qm,
	}
	copy(next.slots, old.slots)
	for si, g := range qm.gemms {
		if qm.panelsDirty[si] {
			w := g.binding()
			need := tensor.PackAI8Len(w.m, w.k)
			panels := make([]int16, need)
			tensor.PackAI8(panels, w.codes, w.m, w.k)
			next.slots[si].panels = panels
			qm.panelsDirty[si] = false
		}
		if qm.coeffsDirty[si] {
			next.slots[si].cA, next.slots[si].cS = g.epochCoeffs()
			qm.coeffsDirty[si] = false
		}
	}
	next.refs.Store(1) // the "current" reference
	qm.liveEpochs.Add(1)
	qm.anyDirty.Store(false)
	qm.cur.Store(next)
	old.release()
}

// gemmOp is the compile-time registration interface of the two lowered
// GEMM ops: each owns one epoch slot.
type gemmOp interface {
	binding() *qweights
	epochCoeffs() (cA, cS []float32)
}

// registerGemm assigns op the next epoch slot.
func (qm *QModel) registerGemm(op gemmOp) {
	op.binding().eidx = len(qm.gemms)
	qm.gemms = append(qm.gemms, op)
}

// initEpochs publishes the (empty, all-dirty) epoch 0 after compilation;
// the first Forward or Score rebuilds every slot.
func (qm *QModel) initEpochs() {
	n := len(qm.gemms)
	qm.panelsDirty = make([]bool, n)
	qm.coeffsDirty = make([]bool, n)
	for i := 0; i < n; i++ {
		qm.panelsDirty[i] = true
		qm.coeffsDirty[i] = true
	}
	ep := &epoch{slots: make([]epochSlot, n), qm: qm}
	ep.refs.Store(1)
	qm.liveEpochs.Store(1)
	qm.cur.Store(ep)
	qm.anyDirty.Store(n > 0)
}
