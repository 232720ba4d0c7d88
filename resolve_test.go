package rowhammer

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"rowhammer/internal/campaign"
	"rowhammer/internal/core"
	"rowhammer/internal/dram"
	"rowhammer/internal/profile"
)

// TestHardwareConfigResolves pins what each HardwareConfig resolves to
// through campaignd's JobSpec — the one path every online entry point
// takes — field by field against literal expectations, the defaults
// (192 MB, module and measure seed 7, fault seed 1) included.
func TestHardwareConfigResolves(t *testing.T) {
	file, reqs := profile.SyntheticWorkload(16, 3)
	ddr3 := dram.PaperDDR3()
	k1, _ := dram.ProfileByName("K1")
	online := func(sides int, seed int64) core.OnlineConfig {
		return core.OnlineConfig{BufferPages: 32768, Sides: sides, Intensity: 1,
			MeasureSeed: seed, WeightFileName: "model-weights.bin"}
	}
	cases := []struct {
		name   string
		hw     HardwareConfig
		module campaign.ModuleSpec
		online core.OnlineConfig
	}{
		{"zero value", HardwareConfig{},
			campaign.ModuleSpec{Device: ddr3, SizeBytes: 192 << 20, Seed: 7},
			online(2, 7)},
		{"K1 7-sided", HardwareConfig{Device: "K1", Sides: 7, Seed: 11},
			campaign.ModuleSpec{Device: k1, SizeBytes: 192 << 20, Seed: 11},
			online(7, 11)},
		{"fault seed defaults to 1", HardwareConfig{FlipFailProb: 0.25},
			campaign.ModuleSpec{Device: ddr3, SizeBytes: 192 << 20, Seed: 7,
				Fault: dram.FaultModel{FlipFailProb: 0.25, Seed: 1}},
			online(2, 7)},
		{"fault knobs", HardwareConfig{TRRJitter: 0.05, FaultSeed: 9},
			campaign.ModuleSpec{Device: ddr3, SizeBytes: 192 << 20, Seed: 7,
				Fault: dram.FaultModel{TRRJitter: 0.05, Seed: 9}},
			online(2, 7)},
		{"fault seed alone sets no model", HardwareConfig{FaultSeed: 9},
			campaign.ModuleSpec{Device: ddr3, SizeBytes: 192 << 20, Seed: 7},
			online(2, 7)},
		{"robust engine", HardwareConfig{Rounds: 5, Escalation: 2, RetemplatePasses: 2},
			campaign.ModuleSpec{Device: ddr3, SizeBytes: 192 << 20, Seed: 7},
			core.OnlineConfig{BufferPages: 32768, Sides: 2, Intensity: 1, MeasureSeed: 7,
				WeightFileName: "model-weights.bin", Rounds: 5, Escalation: 2, RetemplatePasses: 2}},
		{"64 MB module", HardwareConfig{ModuleMB: 64},
			campaign.ModuleSpec{Device: ddr3, SizeBytes: 64 << 20, Seed: 7},
			online(2, 7)},
	}
	for _, c := range cases {
		job, err := c.hw.spec(file, reqs).Job(0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := campaign.Job{Name: c.module.Device.Name + "-0", WeightFile: file, Reqs: reqs,
			Module: c.module, Online: c.online}
		if !reflect.DeepEqual(job, want) {
			t.Errorf("%s:\n got  %+v %+v\n want %+v %+v", c.name, job.Module, job.Online, want.Module, want.Online)
		}
	}
}

// TestHardwareConfigRejects checks that configs the engine cannot apply
// fail at resolution, naming the offending value.
func TestHardwareConfigRejects(t *testing.T) {
	file, reqs := profile.SyntheticWorkload(16, 3)
	for _, c := range []struct {
		hw   HardwareConfig
		want string
	}{
		{HardwareConfig{Device: "Z9"}, `"Z9"`},
		{HardwareConfig{FlipFailProb: 1.5}, "1.5"},
		{HardwareConfig{FlipFailProb: -0.5}, "-0.5"},
		{HardwareConfig{FlipFailProb: math.NaN()}, "NaN"},
		{HardwareConfig{TRRJitter: -1}, "-1"},
		{HardwareConfig{TRRJitter: math.Inf(1)}, "+Inf"},
		{HardwareConfig{ModuleMB: -1}, "module size"},
	} {
		_, err := c.hw.spec(file, reqs).Job(0)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %v, want one naming %s", c.hw, err, c.want)
		}
	}
}
