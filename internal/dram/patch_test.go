package dram

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// denseCellProfile has ~400 weak cells per page: a full hammer flips
// about 200 bits of a page, far past patchCap, while the low
// intensities flip a few dozen, so the same workload leaves pages
// patched, overflows patches into arena cells, and mixes both.
func denseCellProfile() DeviceProfile {
	return DeviceProfile{Name: "dense-cells", Type: DDR3, FlipsPerPage: 400}
}

// patchOpsGeom is the module the op programs run on: 2 banks × 32 rows
// (512 KB), small enough to byte-compare after every program.
var patchOpsGeom = Geometry{Banks: 2, RowsPerBank: 32}

// opIntensities span the fired fraction of the weak cells from about a
// tenth (a patched page) to all of them (a patch overflow).
var opIntensities = [4]float64{0.6, 0.7, 0.8, 1}

var opFault = FaultModel{Seed: 5, FlipFailProb: 0.3, TRRJitter: 0.2}

// opRecord is the byte length of one op of a program: an opcode and
// its parameters. A short last record reads zeros, so every byte
// string is a valid program.
const opRecord = 6

// opReader hands out the parameters of one op record.
type opReader struct {
	rec [opRecord]byte
	pos int
}

func (r *opReader) next() int {
	r.pos++
	return int(r.rec[r.pos-1])
}

func (r *opReader) next16() int { return r.next()<<8 | r.next() }

// baseByte is the byte most of page p reads as on the sparse module:
// the constant or patch base, or byte 0 of an arena page. Writes of it
// exercise the paths that drop patch entries instead of materializing.
func baseByte(m *Module, p int) byte {
	switch s := m.store.state[p]; {
	case s >= 0:
		return m.store.pageBytes(s)[0]
	case isConst(s):
		return decodeConst(s)
	default:
		return m.store.patch(s).base
	}
}

// pageDiffs collects what PageDiff reports for one page.
func pageDiffs(m *Module, addr int, v byte) [][2]int {
	var out [][2]int
	m.PageDiff(addr, v, func(off int, diff byte) { out = append(out, [2]int{off, int(diff)}) })
	return out
}

// checkPatches verifies the patch invariants of every patched page:
// at most patchCap entries, ascending offsets, no zero mask.
func checkPatches(t *testing.T, m *Module) {
	t.Helper()
	for p, s := range m.store.state {
		if s >= constFloor {
			continue
		}
		c := m.store.patch(s)
		if c.n == 0 || c.n > patchCap {
			t.Fatalf("page %d: patch holds %d entries", p, c.n)
		}
		for i, e := range c.ent[:c.n] {
			if byte(e) == 0 || int(e>>8) >= OSPageBytes || (i > 0 && e>>8 <= c.ent[i-1]>>8) {
				t.Fatalf("page %d: patch entry %d = %#x breaks the invariants", p, i, e)
			}
		}
	}
}

// runPatchOps interprets prog as a sequence of module operations, runs
// it on a sparse module and on the dense oracle, and fails on the first
// observable difference: flip events, bytes read, PageDiff output, and
// the whole memory image at the end. It returns how many hammers left
// a patched page and how many overflowed a patch into an arena cell.
func runPatchOps(t *testing.T, prog []byte) (patchedHammers, overflows int) {
	const seed = 11
	prof := denseCellProfile()
	sparse, err := NewModule(patchOpsGeom, prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDenseModule(patchOpsGeom, prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	both := func(f func(m *Module)) { f(sparse); f(dense) }
	size := sparse.Size()
	npages := size / OSPageBytes
	rows := patchOpsGeom.RowsPerBank
	for step := 0; step*opRecord < len(prog); step++ {
		r := &opReader{}
		copy(r.rec[:], prog[step*opRecord:])
		switch op := r.next() % 10; op {
		case 0, 1: // hammer, events on
			bank := r.next() % patchOpsGeom.Banks
			in := opIntensities[r.next()%len(opIntensities)]
			var aggs []int
			if op == 0 {
				v := 1 + r.next()%(rows-2)
				aggs = []int{v - 1, v + 1}
			} else {
				sides := 3 + r.next()%5
				start := r.next() % (rows - 2*(sides-1))
				for i := 0; i < sides; i++ {
					aggs = append(aggs, start+2*i)
				}
			}
			cells := sparse.store.cells.live
			se, de := sparse.Hammer(bank, aggs, in), dense.Hammer(bank, aggs, in)
			if !slices.Equal(se, de) {
				t.Fatalf("step %d: hammer bank %d rows %v at %v: sparse %d events, dense %d", step, bank, aggs, in, len(se), len(de))
			}
			if sparse.store.cells.live > cells {
				overflows++
			}
			if sparse.store.patched.live > 0 {
				patchedHammers++
			}
		case 2: // Read
			addr := (r.next16()<<4 | r.next()&15) % size
			if s, d := sparse.Read(addr), dense.Read(addr); s != d {
				t.Fatalf("step %d: Read(%#x) = %#x sparse, %#x dense", step, addr, s, d)
			}
		case 3: // ReadRangeInto across a page edge
			edge := (1 + r.next()%(npages-1)) * OSPageBytes
			addr := edge - 1 - r.next()*16
			n := min(1+r.next()*40, size-addr)
			sb, db := make([]byte, n), make([]byte, n)
			sparse.ReadRangeInto(addr, sb)
			dense.ReadRangeInto(addr, db)
			if !bytes.Equal(sb, db) {
				t.Fatalf("step %d: ReadRangeInto(%#x, %d) differs", step, addr, n)
			}
		case 4: // Write, half the time the page's base byte
			addr := (r.next16()<<4 | r.next()&15) % size
			v := byte(r.next())
			if v&1 == 0 {
				v = baseByte(sparse, addr>>pageShift)
			}
			both(func(m *Module) { m.Write(addr, v) })
		case 5: // WriteRange: a base-byte segment, random bytes, or a full page of one byte
			p := r.next() % npages
			mode, n := r.next()%3, 1+r.next()*20
			addr := p*OSPageBytes + r.next()*16
			buf := make([]byte, min(n, size-addr))
			switch mode {
			case 0:
				for i := range buf {
					buf[i] = baseByte(sparse, p)
				}
			case 1:
				rand.New(rand.NewSource(int64(addr))).Read(buf)
			default:
				addr, buf = p*OSPageBytes, bytes.Repeat([]byte{byte(n)}, OSPageBytes)
			}
			both(func(m *Module) { m.WriteRange(addr, buf) })
		case 6: // FillPage
			p, v := r.next()%npages, byte(r.next())
			both(func(m *Module) { m.FillPage(p*OSPageBytes, v) })
		case 7: // PageDiff against a polarity
			p, v := r.next()%npages, byte(r.next())
			if s, d := pageDiffs(sparse, p*OSPageBytes, v), pageDiffs(dense, p*OSPageBytes, v); !slices.Equal(s, d) {
				t.Fatalf("step %d: PageDiff(page %d, %#x): %d sparse diffs, %d dense", step, p, v, len(s), len(d))
			}
		case 8: // fault model on or off
			fm := FaultModel{}
			if r.next()&1 == 1 {
				fm = opFault
			}
			both(func(m *Module) { m.SetFaultModel(fm) })
		case 9: // Reset
			both(func(m *Module) { m.Reset(prof, seed) })
		}
		checkPatches(t, sparse)
	}
	compareModules(t, sparse, dense, "after the op program")
	for p := 0; p < npages; p++ {
		for _, v := range [2]byte{0x00, 0xFF} {
			got := pageDiffs(sparse, p*OSPageBytes, v)
			var want [][2]int
			b := dense.ReadRange(p*OSPageBytes, OSPageBytes)
			for off, x := range b {
				if x != v {
					want = append(want, [2]int{off, int(x ^ v)})
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("page %d: PageDiff against %#x disagrees with the page's bytes", p, v)
			}
		}
	}
	return patchedHammers, overflows
}

// TestSparseDenseIdentityPatched runs seeded random op programs —
// hammers with and without a fault model, reads across page edges,
// writes of patched pages' base bytes and of other bytes, fills,
// PageDiff scans and resets — on a device whose weak cells are dense
// enough to overflow patches, and requires the sparse module to match
// the dense oracle throughout.
func TestSparseDenseIdentityPatched(t *testing.T) {
	// Half the ops hammer, so most programs build patches.
	weights := []int{0, 0, 0, 1, 1, 1, 2, 3, 4, 5, 5, 6, 7, 8, 9}
	patched, overflowed := 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 100*opRecord)
		rng.Read(prog)
		for i := 0; i < len(prog); i += opRecord {
			prog[i] = byte(weights[rng.Intn(len(weights))])
		}
		p, o := runPatchOps(t, prog)
		patched += p
		overflowed += o
	}
	if patched == 0 || overflowed == 0 {
		t.Fatalf("%d hammers left patched pages and %d overflowed a patch; the test is vacuous", patched, overflowed)
	}
}

// FuzzSparseDenseOps drives runPatchOps with arbitrary programs. The
// committed corpus (testdata/fuzz/FuzzSparseDenseOps) runs with every
// go test; `go test -fuzz FuzzSparseDenseOps ./internal/dram` explores.
func FuzzSparseDenseOps(f *testing.F) {
	f.Add([]byte{0, 0, 3, 5, 0, 0, 1, 1, 1, 2, 3, 0, 5, 4, 0, 30, 0, 0, 7, 4, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512*opRecord {
			return
		}
		runPatchOps(t, prog)
	})
}

// TestConcurrentPatchedPagesMatchSerial: goroutines templating disjoint
// banks on a dense-cell device — fills, hammers at mixed intensities,
// refills — create, overflow and free patch and arena cells through the
// one shared allocator at once. Memory and flip events must equal one
// goroutine running the banks in turn and the dense oracle; under -race
// this is the gate for the unlocked patch-slab lookups.
func TestConcurrentPatchedPagesMatchSerial(t *testing.T) {
	const banks, passes = 8, 3
	geom := Geometry{Banks: banks, RowsPerBank: 64}
	run := func(newModule func(Geometry, DeviceProfile, int64) (*Module, error), concurrent bool) (*Module, [][]FlipEvent) {
		m, err := newModule(geom, denseCellProfile(), 13)
		if err != nil {
			t.Fatal(err)
		}
		events := make([][]FlipEvent, banks)
		work := func(bank int) {
			for pass := 0; pass < passes; pass++ {
				for victim := 2; victim < geom.RowsPerBank-2; victim += 3 {
					pol := byte(pass%2) * 0xFF
					m.FillRow(bank, victim-1, ^pol)
					m.FillRow(bank, victim, pol)
					m.FillRow(bank, victim+1, ^pol)
					in := opIntensities[(victim+bank+pass)%len(opIntensities)]
					events[bank] = append(events[bank], m.Hammer(bank, []int{victim - 1, victim + 1}, in)...)
				}
			}
		}
		if !concurrent {
			for bank := 0; bank < banks; bank++ {
				work(bank)
			}
			return m, events
		}
		var wg sync.WaitGroup
		for bank := 0; bank < banks; bank++ {
			wg.Add(1)
			go func(bank int) {
				defer wg.Done()
				work(bank)
			}(bank)
		}
		wg.Wait()
		return m, events
	}
	oracle, oe := run(NewDenseModule, false)
	serial, se := run(NewModule, false)
	conc, ce := run(NewModule, true)
	for bank := range oe {
		if !slices.Equal(oe[bank], se[bank]) || !slices.Equal(oe[bank], ce[bank]) {
			t.Fatalf("bank %d: flip events differ (%d dense, %d serial, %d concurrent)", bank, len(oe[bank]), len(se[bank]), len(ce[bank]))
		}
	}
	if conc.store.patched.live == 0 || conc.store.cells.live == 0 {
		t.Fatalf("%d patched and %d materialized pages; the test is vacuous", conc.store.patched.live, conc.store.cells.live)
	}
	checkPatches(t, conc)
	compareModules(t, serial, oracle, "serial sparse against dense")
	compareModules(t, conc, oracle, "concurrent sparse against dense")
}
