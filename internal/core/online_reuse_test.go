package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/profile"
)

// TestExecuteOnlineRejectsNegativeRetryKnobs asserts a mis-wired retry
// configuration fails loudly instead of silently degrading to the
// single-shot engine.
func TestExecuteOnlineRejectsNegativeRetryKnobs(t *testing.T) {
	base := OnlineConfig{BufferPages: 64, Sides: 2, Intensity: 1}
	cases := []struct {
		name string
		mut  func(*OnlineConfig)
		want string
	}{
		{"rounds", func(c *OnlineConfig) { c.Rounds = -1 }, "Rounds"},
		{"escalation", func(c *OnlineConfig) { c.Escalation = -0.5 }, "Escalation"},
		{"retemplate", func(c *OnlineConfig) { c.RetemplatePasses = -2 }, "RetemplatePasses"},
		{"maxbuffer", func(c *OnlineConfig) { c.MaxBufferPages = -64 }, "MaxBufferPages"},
	}
	mod, err := dram.NewModuleForSize(8<<20, dram.PaperDDR3(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sys := memsys.NewSystem(mod)
	file := make([]byte, memsys.PageSize)
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		_, err := ExecuteOnline(sys, file, nil, cfg)
		if err == nil {
			t.Fatalf("%s: negative knob accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name the offending knob %q", tc.name, err, tc.want)
		}
	}
}

// reuseModule builds the fixed module identity both halves of the
// profile-reuse tests share.
func reuseModule(t *testing.T, bufPages int) *memsys.System {
	t.Helper()
	mod, err := dram.NewModuleForSize(bufPages*memsys.PageSize+(16<<20), dram.PaperDDR3(), 77)
	if err != nil {
		t.Fatal(err)
	}
	return memsys.NewSystem(mod)
}

// templateOn reproduces ExecuteOnline's buffer setup on an identical
// system and returns the resulting flip template — what the campaign
// cache stores on a cold miss.
func templateOn(t *testing.T, sys *memsys.System, cfg OnlineConfig) *profile.Profile {
	t.Helper()
	attacker := sys.NewProcess()
	base, err := attacker.Mmap(cfg.BufferPages)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.ProfileBuffer(sys, attacker, base, cfg.BufferPages, profile.Config{
		Sides:       cfg.Sides,
		Intensity:   cfg.Intensity,
		MeasureSeed: cfg.MeasureSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// TestExecuteOnlineProfileReuseIdentity asserts the warm path — a
// template computed once and injected via OnlineConfig.Profile into a
// pristine module of the same identity — produces the byte-identical
// attack the cold path does. This is the invariant the cross-campaign
// profile cache rests on.
func TestExecuteOnlineProfileReuseIdentity(t *testing.T) {
	const filePages = 256
	file, reqs := profile.SyntheticWorkload(filePages, 3)
	cfg := OnlineConfig{
		BufferPages:    2048,
		Sides:          2,
		Intensity:      1,
		MeasureSeed:    7,
		WeightFileName: "reuse-weights.bin",
	}

	cold, err := ExecuteOnline(reuseModule(t, cfg.BufferPages), file, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.NMatch == 0 {
		t.Fatal("workload matched no requirement; identity check would be vacuous")
	}

	prof := templateOn(t, reuseModule(t, cfg.BufferPages), cfg)
	prof.PrimeIndex()
	rowsBefore := len(prof.Rows)

	warmCfg := cfg
	warmCfg.Profile = prof
	warm, err := ExecuteOnline(reuseModule(t, cfg.BufferPages), file, reqs, warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm.CorruptedFile, cold.CorruptedFile) {
		t.Fatal("warm (cached-profile) corrupted file differs from cold path")
	}
	if !reflect.DeepEqual(warm.Plan, cold.Plan) {
		t.Fatal("warm placement plan differs from cold path")
	}
	if warm.NMatch != cold.NMatch || warm.RMatch != cold.RMatch {
		t.Fatalf("warm metrics (match %d, r %.2f) differ from cold (match %d, r %.2f)",
			warm.NMatch, warm.RMatch, cold.NMatch, cold.RMatch)
	}
	if len(prof.Rows) != rowsBefore {
		t.Fatalf("shared profile mutated: %d rows, had %d", len(prof.Rows), rowsBefore)
	}

	// With re-templating enabled the engine must work on a clone; the
	// shared profile stays frozen even if passes fire.
	cloneCfg := warmCfg
	cloneCfg.RetemplatePasses = 2
	if _, err := ExecuteOnline(reuseModule(t, cfg.BufferPages), file, reqs, cloneCfg); err != nil {
		t.Fatal(err)
	}
	if len(prof.Rows) != rowsBefore {
		t.Fatalf("re-templating mutated the shared profile: %d rows, had %d", len(prof.Rows), rowsBefore)
	}

	// A template for a different buffer must be refused, not misapplied.
	badCfg := warmCfg
	badCfg.BufferPages = 4096
	if _, err := ExecuteOnline(reuseModule(t, badCfg.BufferPages), file, reqs, badCfg); err == nil {
		t.Fatal("mismatched cached profile accepted")
	}
}

// TestExecuteOnlineToleratesOutOfRangeFlips: ExecuteOnline takes
// requirements and templates unvalidated (campaign.Job.Validate guards
// only the fleet engine). A requirement flip outside the page's cells
// must come back unmatched, and a cached template carrying such flips
// must plan as if they were absent — no panic on either.
func TestExecuteOnlineToleratesOutOfRangeFlips(t *testing.T) {
	const filePages = 16
	cfg := OnlineConfig{BufferPages: 512, Sides: 2, Intensity: 1, MeasureSeed: 7}
	prof := templateOn(t, reuseModule(t, cfg.BufferPages), cfg)
	var good profile.CellFlip
	found := false
	for ri := range prof.Rows {
		if fl := prof.Rows[ri].Pages[0].Flips; len(fl) > 0 {
			good, found = fl[0], true
			break
		}
	}
	if !found {
		t.Fatal("template holds no flip to build a matchable requirement from")
	}
	bad := []profile.CellFlip{
		{Offset: memsys.PageSize, Bit: 0, Dir: dram.ZeroToOne},
		{Offset: -8, Bit: 1, Dir: dram.OneToZero},
		{Offset: 9, Bit: 8, Dir: dram.ZeroToOne},
		{Offset: 9, Bit: 3, Dir: 0},
	}
	for ri := range prof.Rows {
		prof.Rows[ri].Pages[1].Flips = append(prof.Rows[ri].Pages[1].Flips, bad...)
	}
	var reqs []profile.PageRequirement
	for i, f := range bad {
		reqs = append(reqs, profile.PageRequirement{FilePage: i, Flips: []profile.CellFlip{f}})
	}
	reqs = append(reqs, profile.PageRequirement{FilePage: len(bad), Flips: []profile.CellFlip{good}})

	file := make([]byte, filePages*memsys.PageSize)
	cfg.Profile = prof
	res, err := ExecuteOnline(reuseModule(t, cfg.BufferPages), file, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unmatched != len(bad) || len(res.Plan.Matched) != 1 {
		t.Fatalf("unmatched %d / matched %d, want %d/1", res.Unmatched, len(res.Plan.Matched), len(bad))
	}
}

// TestExecuteOnlineRejectsForeignMapping: every process maps its first
// buffer at the same virtual base, so only the frames tell a template
// drawn on a System that was not pristine from a valid one. Such a
// template, and a valid one offered to a run whose System was not
// pristine, must both be refused, not planned against the wrong rows.
func TestExecuteOnlineRejectsForeignMapping(t *testing.T) {
	const filePages = 16
	file, reqs := profile.SyntheticWorkload(filePages, 3)
	cfg := OnlineConfig{BufferPages: 512, Sides: 2, Intensity: 1, MeasureSeed: 7}
	dirty := func() *memsys.System {
		sys := reuseModule(t, cfg.BufferPages)
		if _, err := sys.NewProcess().Mmap(6); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	foreign := templateOn(t, dirty(), cfg)
	valid := templateOn(t, reuseModule(t, cfg.BufferPages), cfg)
	if foreign.BufBase != valid.BufBase || foreign.BufPages != valid.BufPages {
		t.Fatalf("templates cover %#x/%d and %#x/%d; the test needs equal buffers",
			foreign.BufBase, foreign.BufPages, valid.BufBase, valid.BufPages)
	}
	cases := []struct {
		name string
		prof *profile.Profile
		sys  *memsys.System
	}{
		{"template from a used System", foreign, reuseModule(t, cfg.BufferPages)},
		{"run on a used System", valid, dirty()},
	}
	for _, tc := range cases {
		c := cfg
		c.Profile = tc.prof
		_, err := ExecuteOnline(tc.sys, file, reqs, c)
		if err == nil || !strings.Contains(err.Error(), "other frames") {
			t.Fatalf("%s: err = %v, want a frame-mapping error", tc.name, err)
		}
	}
	cfg.Profile = valid
	if _, err := ExecuteOnline(reuseModule(t, cfg.BufferPages), file, reqs, cfg); err != nil {
		t.Fatalf("valid template refused: %v", err)
	}
}
