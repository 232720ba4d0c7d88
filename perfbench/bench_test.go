package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"rowhammer"
	"rowhammer/internal/core"
)

// unexported reads a struct field the public API keeps private. The
// equivalence test needs the codes and the corrupted file, which
// rowhammer.Offline and rowhammer.Online hold but do not export.
func unexported[T any](ptr any, field string) T {
	f := reflect.ValueOf(ptr).Elem().FieldByName(field)
	return *(*T)(unsafe.Pointer(f.UnsafeAddr()))
}

// TestAttackMatchesPublicAPI holds the attack workload, which calls the
// layers directly so it can time them, byte-identical to what a user
// runs: rowhammer.TrainVictim → InjectBackdoor → HammerOnline →
// Evaluate with their defaults.
func TestAttackMatchesPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a victim and runs two complete attacks")
	}
	const seed, target = 5, 3
	v, err := trainVictim(victimSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	got, err := runAttack(v, target, newTracer(), 0)
	if err != nil {
		t.Fatal(err)
	}

	pv, err := rowhammer.TrainVictim(rowhammer.VictimConfig{Seed: victimSeed(seed)})
	if err != nil {
		t.Fatal(err)
	}
	off, err := rowhammer.InjectBackdoor(pv, rowhammer.AttackConfig{TargetClass: target})
	if err != nil {
		t.Fatal(err)
	}
	on, err := rowhammer.HammerOnline(pv, off, rowhammer.HardwareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rowhammer.Evaluate(pv, off, on)
	if err != nil {
		t.Fatal(err)
	}

	wantOff := unexported[*core.Result](off, "inner")
	wantOn := unexported[*core.OnlineResult](on, "inner")
	codes := func(c []int8) []byte { return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(c))), len(c)) }
	if !bytes.Equal(codes(got.off.OrigCodes), codes(wantOff.OrigCodes)) {
		t.Error("clean codes differ")
	}
	if !bytes.Equal(codes(got.off.BackdooredCodes), codes(wantOff.BackdooredCodes)) {
		t.Error("backdoored codes differ")
	}
	if !bytes.Equal(float32Bytes(got.off.Trigger.Pattern.Data()), float32Bytes(off.Trigger.Pattern.Data())) {
		t.Error("trigger patterns differ")
	}
	if !bytes.Equal(got.on.CorruptedFile, wantOn.CorruptedFile) {
		t.Error("corrupted weight files differ")
	}
	if got.report != *rep {
		t.Errorf("report differs:\n got %+v\nwant %+v", got.report, *rep)
	}
}

// TestBenchmarkJSONListsMetrics keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONListsMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []unit) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

// TestSelfTimes checks self time against hand-built spans: overlapping
// children count once, and parts subtract their duration.
func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 50 * ms},
		{Name: "c", Parent: 0, Start: 60 * ms, End: 70 * ms},
		{Name: "part", Parent: 3, Start: -1, End: 4 * ms},
	}
	want := []int64{50 * ms, 30 * ms, 20 * ms, 6 * ms, 4 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}
