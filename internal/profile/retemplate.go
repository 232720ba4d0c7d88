package profile

import (
	"fmt"

	"rowhammer/internal/memsys"
)

// ExtendProfile grows an existing profile by templating a freshly
// mapped extension region that must sit virtually flush against the end
// of the current buffer (a second Mmap on the same process lands there
// by construction). The extension is profiled with the same
// configuration and its rows are appended to p with their page indices
// rebased onto p.BufBase, so the memoized flip inventory only needs the
// incremental index pass — candidate order stays ascending because
// appended rows take higher indices.
func ExtendProfile(sys *memsys.System, attacker *memsys.Process, p *Profile, extBase, extPages int, cfg Config) error {
	want := p.BufBase + p.BufPages*memsys.PageSize
	if extBase != want {
		return fmt.Errorf("profile: extension at %#x not contiguous with buffer end %#x", extBase, want)
	}
	if extPages%2 != 0 {
		return fmt.Errorf("profile: extension must be a whole number of 8KB rows")
	}
	ext, err := ProfileBuffer(sys, attacker, extBase, extPages, cfg)
	if err != nil {
		return fmt.Errorf("profile: extension templating: %w", err)
	}
	off := p.BufPages
	p.ensurePages(p.BufPages + extPages)
	for _, r := range ext.Rows {
		idx := len(p.Rows)
		for half := 0; half < 2; half++ {
			r.Pages[half].BufferPage += off
			p.setVictimPage(r.Pages[half].BufferPage, idx, half)
		}
		p.Rows = append(p.Rows, r)
	}
	for pg := 0; pg < ext.BufPages; pg++ {
		if ext.aggressorBits[pg>>6]&(1<<(uint(pg)&63)) != 0 {
			p.setAggressorPage(pg + off)
		}
	}
	p.BufPages += extPages
	p.origin = nil
	if p.frames, err = attacker.FrameDigest(p.BufBase, p.BufPages); err != nil {
		return fmt.Errorf("profile: extended buffer: %w", err)
	}
	return nil
}

// ReprofileUnion re-runs the templating sweep over the profile's entire
// buffer and unions any newly observed flips into the existing rows.
// Under deterministic hammering this is a no-op (the sweep reproduces
// the recorded templates exactly); with a fault model injected
// (dram.FaultModel) each pass flips a fresh per-pass coin per weak
// cell, so repeated passes asymptotically recover the cells earlier
// passes missed — the "additional profiling passes" arm of adaptive
// re-templating. Newly found flips are appended to their page's list in
// sweep order and inserted into the memoized flip inventory at their
// sorted position, keeping planning deterministic. Rows whose victim
// pages were not seen before (possible when a grown buffer's re-sweep
// clusters across the old region boundary) are appended as new rows.
// Returns the number of newly discovered flips.
func ReprofileUnion(sys *memsys.System, attacker *memsys.Process, p *Profile, cfg Config) (int, error) {
	fresh, err := ProfileBuffer(sys, attacker, p.BufBase, p.BufPages, cfg)
	if err != nil {
		return 0, fmt.Errorf("profile: re-templating sweep: %w", err)
	}
	added := 0
	for _, r := range fresh.Rows {
		row0, half0, known := p.victimPageAt(r.Pages[0].BufferPage)
		row1, half1, known1 := p.victimPageAt(r.Pages[1].BufferPage)
		if known && known1 && row0 == row1 && half0 == 0 && half1 == 1 {
			// Same victim row as an existing one: union the templates,
			// keep the recorded aggressors (any cell that fires under the
			// re-sweep's aggressors fires under the recorded sandwich too —
			// both deliver the same full-intensity disturbance).
			ri := row0
			for half := 0; half < 2; half++ {
				have := &p.Rows[ri].Pages[half]
				for _, f := range r.Pages[half].Flips {
					if !containsFlip(have.Flips, f) {
						have.Flips = append(have.Flips, f)
						p.indexInsertFlip(f, ri, half)
						added++
					}
				}
			}
			continue
		}
		// A victim row the original sweeps never covered: append it.
		idx := len(p.Rows)
		for half := 0; half < 2; half++ {
			p.setVictimPage(r.Pages[half].BufferPage, idx, half)
			added += len(r.Pages[half].Flips)
		}
		p.Rows = append(p.Rows, r)
	}
	for pg := 0; pg < fresh.BufPages; pg++ {
		if fresh.aggressorBits[pg>>6]&(1<<(uint(pg)&63)) != 0 {
			p.setAggressorPage(pg)
		}
	}
	p.origin = nil
	return added, nil
}

// ReplaySweep answers a ReprofileUnion of p with cfg without sweeping
// when that sweep would certainly replay p's own template: p is the
// unmodified result of one ProfileBuffer sweep that started on
// untouched pass counters, cfg is that sweep's configuration, and sys's
// module has the template's identity and fault model with every pass
// counter still at 0. The sweep would then draw exactly the template's
// coins and union in 0 flips. What it would still change is the pass
// counters, so ReplaySweep advances them as the sweep's hammers would —
// each experiment's aggressors once per fill polarity, a counter-only
// walk with no fills, no cell walk and no readback — and leaves p as it
// is. It reports false, having changed nothing, when the sweep is not
// a certain replay. Unlike the sweep it writes no memory: the buffer
// rows the sweep would have filled and flipped keep their contents.
func ReplaySweep(sys *memsys.System, attacker *memsys.Process, p *Profile, cfg Config) (bool, error) {
	mod := sys.Module()
	if p.origin == nil || *p.origin != originOf(mod, cfg) || !mod.PassesUntouched() {
		return false, nil
	}
	// Each experiment recorded one row per victim, consecutively, all
	// sharing its aggressors: 1 double-sided, Sides−1 n-sided.
	perExp := max(cfg.Sides-1, 1)
	var rowArr [32]int
	rows := rowArr[:0]
	for i := 0; i < len(p.Rows); i += perExp {
		r := &p.Rows[i]
		bank, err := aggressorRowsInto(sys, attacker, r.AggressorVaddrs, &rows)
		if err != nil {
			return false, fmt.Errorf("profile: replaying the templating sweep: %w", err)
		}
		for range polarityBytes {
			mod.AdvancePasses(bank, rows, r.Intensity)
		}
	}
	return true, nil
}

// containsFlip reports whether list already records f.
func containsFlip(list []CellFlip, f CellFlip) bool {
	for _, x := range list {
		if x == f {
			return true
		}
	}
	return false
}
