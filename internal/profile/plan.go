package profile

import (
	"fmt"
	"sort"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/tensor"
)

// PageRequirement lists the bit flips a single weight-file page needs.
// A match requires one profiled page containing every listed flip at
// the exact offset, bit and direction — the constraint that collapses
// the baselines' match rates (Eq. 2).
type PageRequirement struct {
	// FilePage is the page index within the weight file.
	FilePage int
	// Flips are the required cell flips within that page.
	Flips []CellFlip
}

// SyntheticWorkload builds a random page-aligned weight file of
// filePages pages and one single-flip requirement per eighth page (the
// CFT+BR shape: one flip per page, spread across distinct pages), each
// direction chosen so the flip is observable against the stored bit.
// Deterministic in seed; the demo fleet, the robustness sweep and the
// fleet tests all draw from it.
func SyntheticWorkload(filePages int, seed int64) ([]byte, []PageRequirement) {
	rng := tensor.NewRNG(seed)
	file := make([]byte, filePages*memsys.PageSize)
	for i := range file {
		file[i] = byte(rng.Intn(256))
	}
	var reqs []PageRequirement
	for fp := 0; fp < filePages; fp += 8 {
		off := rng.Intn(memsys.PageSize)
		bit := rng.Intn(8)
		dir := dram.ZeroToOne
		if file[fp*memsys.PageSize+off]&(1<<bit) != 0 {
			dir = dram.OneToZero
		}
		reqs = append(reqs, PageRequirement{
			FilePage: fp,
			Flips:    []CellFlip{{Offset: off, Bit: bit, Dir: dir}},
		})
	}
	return file, reqs
}

// Placement is the online-phase plan: where each file page goes and
// which rows get hammered.
type Placement struct {
	// Assignment maps file page index → attacker buffer page index.
	// Length equals the file's page count.
	Assignment []int
	// HammerRows indexes into Profile.Rows: the victim rows the online
	// phase hammers.
	HammerRows []int
	// Matched lists the requirements that found a flippy page.
	Matched []PageRequirement
	// MatchedRows holds, parallel to Matched, the Profile.Rows index
	// whose page hosts each matched requirement — the row the robust
	// online engine re-hammers when that requirement's flips fail to
	// fire.
	MatchedRows []int
	// Unmatched lists requirements with no suitable page in the
	// profile; their file pages are placed on bait and their flips
	// never happen.
	Unmatched []PageRequirement
	// ExpectedAccidental is the number of profiled flips that will fire
	// in hammered rows beyond the required ones (the δ of the r_match
	// metric, before filtering by stored-bit direction).
	ExpectedAccidental int
}

// rowBufferPages returns the two buffer pages of a victim row.
func rowBufferPages(p *Profile, ri int) [2]int {
	return [2]int{p.Rows[ri].Pages[0].BufferPage, p.Rows[ri].Pages[1].BufferPage}
}

// aggressorBufferPages lists the buffer pages of a victim row's
// aggressor rows (two pages per 8 KB aggressor chunk). Those pages must
// stay mapped in the attacker so the online phase can hammer. Aggressor
// vaddrs outside [BufBase, BufBase+BufPages) — legal in hand-built or
// externally merged profiles — own no buffer page and are skipped
// rather than producing an out-of-range index.
func aggressorBufferPages(p *Profile, ri int) []int {
	var out []int
	for _, va := range p.Rows[ri].AggressorVaddrs {
		base := (va - p.BufBase) / memsys.PageSize
		for _, pg := range [2]int{base, base + 1} {
			if va >= p.BufBase && pg >= 0 && pg < p.BufPages {
				out = append(out, pg)
			}
		}
	}
	return out
}

// PlanPlacement matches each page requirement against the profile and
// builds the full file→buffer assignment. filePages is the weight
// file's page count.
//
// Constraints honored:
//   - a buffer page can host at most one file page;
//   - the aggressor pages of every hammered row stay attacker-mapped
//     (they are excluded from the assignment);
//   - the sibling half of a hammered row is disturbed collaterally, so
//     it is assigned a file page explicitly and its profiled flips are
//     counted as expected accidental corruption;
//   - all remaining file pages land on bait pages that the planned
//     hammering never disturbs.
func PlanPlacement(p *Profile, reqs []PageRequirement, filePages int) (*Placement, error) {
	if filePages <= 0 {
		return nil, fmt.Errorf("profile: file has no pages")
	}
	// Sort requirements by descending flip count so the hardest match
	// first (they have the fewest candidate pages).
	sorted := append([]PageRequirement(nil), reqs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return len(sorted[i].Flips) > len(sorted[j].Flips)
	})

	p.buildFlipIndex()
	usedPages := make([]bool, p.BufPages)     // assigned (or to be assigned) to file pages
	reservedPages := make([]bool, p.BufPages) // must stay attacker-mapped (aggressors)
	usedRows := make(map[int]bool)
	fileToBuffer := make(map[int]int, filePages)
	var plan Placement

	for _, req := range sorted {
		if len(req.Flips) == 0 {
			continue
		}
		row, half, ok := findMatch(p, req, usedPages, reservedPages)
		if !ok {
			plan.Unmatched = append(plan.Unmatched, req)
			continue
		}
		page := p.Rows[row].Pages[half].BufferPage
		usedPages[page] = true
		usedRows[row] = true
		fileToBuffer[req.FilePage] = page
		plan.Matched = append(plan.Matched, req)
		plan.MatchedRows = append(plan.MatchedRows, row)
		plan.HammerRows = append(plan.HammerRows, row)
		plan.ExpectedAccidental += len(p.Rows[row].Pages[half].Flips) - len(req.Flips)
		for _, ap := range aggressorBufferPages(p, row) {
			reservedPages[ap] = true
		}
	}
	plan.HammerRows = dedupInts(plan.HammerRows)

	// Sibling halves of hammered rows are disturbed too; they must host
	// file pages (the attacker releases them) and their flips count as
	// accidental corruption.
	var collateral []int
	for _, row := range plan.HammerRows {
		for half := 0; half < 2; half++ {
			page := p.Rows[row].Pages[half].BufferPage
			if usedPages[page] {
				continue
			}
			usedPages[page] = true
			collateral = append(collateral, page)
			plan.ExpectedAccidental += len(p.Rows[row].Pages[half].Flips)
		}
	}

	// Bait pool: every buffer page that is neither hosting a target,
	// nor reserved for hammering, nor inside a hammered row.
	bi := 0
	nextBait := func() (int, error) {
		for bi < p.BufPages {
			page := bi
			bi++
			if usedPages[page] || reservedPages[page] {
				continue
			}
			usedPages[page] = true
			return page, nil
		}
		return 0, fmt.Errorf("profile: buffer too small for %d file pages", filePages)
	}

	plan.Assignment = make([]int, filePages)
	ci := 0
	for fp := 0; fp < filePages; fp++ {
		if page, ok := fileToBuffer[fp]; ok {
			plan.Assignment[fp] = page
			continue
		}
		// Collateral pages are inside hammered rows and must be
		// released; hand them the earliest non-target file pages.
		if ci < len(collateral) {
			plan.Assignment[fp] = collateral[ci]
			ci++
			continue
		}
		page, err := nextBait()
		if err != nil {
			return nil, err
		}
		plan.Assignment[fp] = page
	}
	return &plan, nil
}

// cellCount is the number of (offset, bit, direction) cells of a 4 KB
// page — the length of the dense flip index.
const cellCount = memsys.PageSize * 8 * 2

// cellID numbers a flip's cell densely in [0, cellCount). A flip
// outside the page (offset, bit or direction out of range, possible
// only in hand-built input) has no cell: it can never match a valid
// requirement, so the index skips it and a requirement holding it
// stays unmatched.
func cellID(f CellFlip) (int, bool) {
	if f.Offset < 0 || f.Offset >= memsys.PageSize || f.Bit < 0 || f.Bit >= 8 ||
		(f.Dir != dram.ZeroToOne && f.Dir != dram.OneToZero) {
		return 0, false
	}
	return (f.Offset*8+f.Bit)*2 + int(f.Dir-dram.ZeroToOne), true
}

// buildFlipIndex builds (incrementally, memoized per profile) the
// inverted flip inventory: every cell lists the packed (row, half)
// candidates — rows ascending, halves ascending — whose template
// contains it. Matching a requirement then walks only the candidate
// list of its rarest needle instead of scanning every profiled row.
//
// A full build counts the flips per cell, lays every list out in one
// flat array in cell order, and fills it in a second pass over the rows.
// Each cell's list is capped at its length, so growing one (rows
// appended after a previous build by adaptive re-templating, indexed
// here on the next call, or a flip unioned into an indexed row by
// indexInsertFlip) reallocates that list alone and never writes into
// its neighbour. Appending preserves the ascending candidate order
// because new rows always take higher indices.
func (p *Profile) buildFlipIndex() {
	// Fully-indexed profiles return before touching any field, so a
	// primed profile (see PrimeIndex) can serve concurrent PlanPlacement
	// calls: even a same-value write to indexedRows would be a data race.
	if p.flipIndex != nil && p.indexedRows == len(p.Rows) {
		return
	}
	if p.flipIndex == nil {
		p.flipIndex = make([][]int32, cellCount)
		ends := make([]int32, cellCount)
		p.eachIndexable(0, func(id int, _ int32) { ends[id]++ })
		var n int32
		for id, c := range ends {
			n += c
			ends[id] = n
		}
		flat := make([]int32, n)
		lo := int32(0)
		for id, hi := range ends {
			p.flipIndex[id] = flat[lo:lo:hi]
			lo = hi
		}
	}
	p.eachIndexable(p.indexedRows, func(id int, packed int32) {
		p.flipIndex[id] = append(p.flipIndex[id], packed)
	})
	p.indexedRows = len(p.Rows)
}

// eachIndexable calls fn with the cell and packed (row, half) of every
// in-range flip of rows [from, len(Rows)), in candidate order.
func (p *Profile) eachIndexable(from int, fn func(id int, packed int32)) {
	for ri := from; ri < len(p.Rows); ri++ {
		for h := 0; h < 2; h++ {
			for _, f := range p.Rows[ri].Pages[h].Flips {
				if id, ok := cellID(f); ok {
					fn(id, int32(ri*2+h))
				}
			}
		}
	}
}

// indexInsertFlip inserts one candidate into the memoized inventory at
// its sorted position, keeping the ascending (row, half) order the
// tie-break of findMatch depends on. No-op while the index has not been
// built yet (the next buildFlipIndex will pick the flip up from the row
// itself) and for a flip with no cell.
func (p *Profile) indexInsertFlip(f CellFlip, row, half int) {
	id, ok := cellID(f)
	if p.flipIndex == nil || row >= p.indexedRows || !ok {
		return
	}
	packed := int32(row*2 + half)
	l := p.flipIndex[id]
	at := sort.Search(len(l), func(i int) bool { return l[i] >= packed })
	if at < len(l) && l[at] == packed {
		return
	}
	l = append(l, 0)
	copy(l[at+1:], l[at:])
	l[at] = packed
	p.flipIndex[id] = l
}

// rowAggConflict reports whether any aggressor page of row ri was
// already promised to a file page (allocation-free twin of scanning
// aggressorBufferPages). Aggressor vaddrs outside the buffer own no
// buffer page and can never conflict; indexing them unguarded would
// panic on profiles whose aggressors sit below BufBase.
func rowAggConflict(p *Profile, ri int, usedPages []bool) bool {
	for _, va := range p.Rows[ri].AggressorVaddrs {
		base := (va - p.BufBase) / memsys.PageSize
		if va < p.BufBase {
			continue
		}
		if base < len(usedPages) && usedPages[base] {
			return true
		}
		if base+1 < len(usedPages) && usedPages[base+1] {
			return true
		}
	}
	return false
}

// findMatch locates an unused (row, half) whose profiled flips are a
// superset of the requirement, skipping rows that would conflict with
// pages already promised elsewhere. Among candidates it prefers the one
// with the fewest extra flips in the row; ties keep the lowest
// (row, half), exactly as the exhaustive row scan did — the candidate
// list is ordered by construction, so iterating it with a strict
// improvement test preserves that selection.
func findMatch(p *Profile, req PageRequirement, usedPages, reservedPages []bool) (row, half int, ok bool) {
	// Every candidate page must contain all needles, so walking the
	// rarest needle's list covers every possible match.
	var cands []int32
	for i, f := range req.Flips {
		var l []int32
		if id, ok := cellID(f); ok {
			l = p.flipIndex[id]
		}
		if len(l) == 0 {
			return 0, 0, false
		}
		if i == 0 || len(l) < len(cands) {
			cands = l
		}
	}
	bestRow, bestHalf, bestExtra := -1, -1, 1<<30
	for _, c := range cands {
		ri, h := int(c)/2, int(c)%2
		pages := rowBufferPages(p, ri)
		if reservedPages[pages[0]] || reservedPages[pages[1]] {
			continue // this row is an aggressor for an earlier target
		}
		if rowAggConflict(p, ri, usedPages) {
			continue // its aggressors were already given away
		}
		pg := &p.Rows[ri].Pages[h]
		if usedPages[pg.BufferPage] {
			continue
		}
		if !containsAll(pg.Flips, req.Flips) {
			continue
		}
		extra := p.Rows[ri].FlipCount() - len(req.Flips)
		if extra < bestExtra {
			bestRow, bestHalf, bestExtra = ri, h, extra
		}
	}
	if bestRow < 0 {
		return 0, 0, false
	}
	return bestRow, bestHalf, true
}

// containsAll reports whether haystack includes every needle exactly
// (offset, bit and direction).
func containsAll(haystack, needles []CellFlip) bool {
	for _, n := range needles {
		found := false
		for _, h := range haystack {
			if h == n {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func dedupInts(in []int) []int {
	seen := make(map[int]bool, len(in))
	out := in[:0]
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
