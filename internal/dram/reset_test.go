package dram

import (
	"bytes"
	"testing"
)

// exerciseModule dirties a module the way a campaign does — fills,
// arbitrary writes, hammering with and without faults — and returns the
// flip events of a final deterministic hammer plus a memory sample.
func exerciseModule(t *testing.T, m *Module) ([]FlipEvent, []byte) {
	t.Helper()
	m.FillRow(0, 10, 0xFF)
	m.FillRow(0, 12, 0xFF)
	m.Write(m.geom.RowBaseAddr(1, 5)+123, 0xA5)
	m.SetFaultModel(FaultModel{FlipFailProb: 0.3, Seed: 9})
	m.HammerQuiet(0, []int{10, 12}, 1)
	m.SetFaultModel(FaultModel{})
	events := m.Hammer(1, []int{4, 6}, 1)
	sample := m.ReadRange(m.geom.RowBaseAddr(0, 11), RowBytes)
	return events, sample
}

// TestModuleResetIdentity asserts a reset module is observably
// indistinguishable from a fresh one: same weak cells, same hammer
// outcomes, same memory contents, no resident pages — even after the
// previous life materialized pages, installed faults and advanced pass
// counters.
func TestModuleResetIdentity(t *testing.T) {
	geom := Geometry{Banks: 4, RowsPerBank: 64}
	prof := PaperDDR3()

	fresh, err := NewModule(geom, prof, 21)
	if err != nil {
		t.Fatal(err)
	}
	wantEvents, wantSample := exerciseModule(t, fresh)

	reused, err := NewModule(geom, DeviceProfile{Name: "other", Type: DDR4, FlipsPerPage: 99, TRRSamplerSize: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// A different first life: different seed, profile, fault state.
	exerciseModule(t, reused)
	reused.SetFaultModel(FaultModel{TRRJitter: 0.2, Seed: 1})

	reused.Reset(prof, 21)
	if got := reused.ResidentPages(); got != 0 {
		t.Fatalf("ResidentPages after Reset = %d, want 0", got)
	}
	if got := reused.TouchedPages(); got != 0 {
		t.Fatalf("TouchedPages after Reset = %d, want 0", got)
	}
	if fm := reused.FaultModelInstalled(); fm != (FaultModel{}) {
		t.Fatalf("fault model survived Reset: %+v", fm)
	}
	gotEvents, gotSample := exerciseModule(t, reused)
	if len(gotEvents) != len(wantEvents) {
		t.Fatalf("hammer events after Reset: got %d, want %d", len(gotEvents), len(wantEvents))
	}
	for i := range gotEvents {
		if gotEvents[i] != wantEvents[i] {
			t.Fatalf("event %d after Reset = %+v, want %+v", i, gotEvents[i], wantEvents[i])
		}
	}
	if !bytes.Equal(gotSample, wantSample) {
		t.Fatal("row contents after Reset differ from a fresh module")
	}
}
