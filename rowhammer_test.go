package rowhammer

import (
	"bytes"
	"testing"

	"rowhammer/internal/core"
	"rowhammer/internal/quant"
)

// TestPublicAPIEndToEnd drives the façade through the whole pipeline at
// a tiny scale. Behavioral strength (high ASR, preserved TA at
// realistic settings) is asserted by the internal core and experiments
// suites; here the contract of the public API is what is under test.
func TestPublicAPIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: trains a victim model; run without -short")
	}
	victim, err := TrainVictim(VictimConfig{Arch: "resnet20", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if victim.CleanAccuracy() < 0.7 {
		t.Fatalf("clean accuracy %.3f too low", victim.CleanAccuracy())
	}
	if victim.WeightFilePages() < 3 {
		t.Fatalf("weight file pages %d", victim.WeightFilePages())
	}

	off, err := InjectBackdoor(victim, AttackConfig{TargetClass: 2, Iterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	if off.NFlip == 0 {
		t.Fatal("no flips produced")
	}
	if off.Trigger == nil {
		t.Fatal("no trigger produced")
	}
	ta, asr := off.OfflineMetrics()
	if ta <= 0 || ta > 1 || asr < 0 || asr > 1 {
		t.Fatalf("metrics out of range: TA %v ASR %v", ta, asr)
	}

	on, err := HammerOnline(victim, off, HardwareConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if on.Required != off.NFlip {
		t.Fatalf("online required %d != offline NFlip %d", on.Required, off.NFlip)
	}
	if on.Matched == 0 {
		t.Fatal("no required flip landed")
	}

	rep, err := Evaluate(victim, off, on)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NFlipOffline != off.NFlip || rep.RMatch != on.RMatch {
		t.Fatal("report fields inconsistent")
	}
	if rep.OnlineTA <= 0 {
		t.Fatal("online TA missing")
	}
	t.Logf("end-to-end: clean %.3f, offline TA %.3f ASR %.3f, online TA %.3f ASR %.3f, r_match %.2f%%",
		rep.CleanAccuracy, rep.OfflineTA, rep.OfflineASR, rep.OnlineTA, rep.OnlineASR, rep.RMatch)
}

// TestServeUnderFireEndToEnd drives the victim-under-fire façade: the
// online attack runs against a live batched serving engine, each hammer
// round hot-swaps the corrupted file into the victim, and the timeline
// records the degradation/detection trajectory.
func TestServeUnderFireEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: trains victim and checker models; run without -short")
	}
	victim, err := TrainVictim(VictimConfig{Arch: "resnet20", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	off, err := InjectBackdoor(victim, AttackConfig{TargetClass: 2, Iterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	hw := HardwareConfig{Seed: 3, Rounds: 3}
	tl, err := ServeUnderFire(victim, off, hw, ServeOptions{
		Workers: 2, ReplayQueries: 128, LiveClients: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Online == nil || tl.Online.Matched == 0 {
		t.Fatal("attack achieved nothing under fire")
	}
	wantWindows := len(tl.Online.Rounds) + 1
	if len(tl.Windows) != wantWindows {
		t.Fatalf("windows = %d, want baseline + %d rounds", len(tl.Windows), wantWindows-1)
	}
	w0 := tl.Windows[0]
	if w0.FlipsApplied != 0 || w0.Round != 0 {
		t.Fatalf("baseline window not clean: %+v", w0)
	}
	last := tl.Windows[len(tl.Windows)-1]
	if last.FlipsApplied == 0 {
		t.Fatal("no flips ever reached the serving engine")
	}
	if last.EpochSeq <= w0.EpochSeq {
		t.Fatalf("epoch never advanced: %d → %d", w0.EpochSeq, last.EpochSeq)
	}
	if w0.TA <= 0 || last.TA <= 0 || last.SimQPS <= 0 {
		t.Fatalf("degenerate window stats: first %+v last %+v", w0, last)
	}
	if tl.LiveServed == 0 {
		t.Fatal("live clients served no traffic")
	}

	// The timeline is deterministic: a re-run at a different worker
	// count reproduces every window (live traffic numbers aside).
	tl2, err := ServeUnderFire(victim, off, hw, ServeOptions{
		Workers: 4, ReplayQueries: 128, LiveClients: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tl2.Windows) != len(tl.Windows) {
		t.Fatalf("re-run windows %d != %d", len(tl2.Windows), len(tl.Windows))
	}
	for i := range tl.Windows {
		if tl.Windows[i] != tl2.Windows[i] {
			t.Fatalf("window %d differs across worker counts:\n%+v\n%+v", i, tl.Windows[i], tl2.Windows[i])
		}
	}
	t.Logf("under fire: baseline TA %.3f alarm %.3f → final TA %.3f ASR %.3f alarm %.3f, %d flips, detected=%v lag=%d queries, live QPS %.1f (batch %.1f)",
		w0.TA, w0.AlarmRate, last.TA, last.ASR, last.AlarmRate, last.FlipsApplied,
		tl.Detected, tl.DetectionLagQueries, tl.LiveQPS, tl.LiveMeanBatch)
}

// TestRunFleetMatchesHammerOnline pins the fleet engine to the
// single-module path: a no-fault fleet campaign corrupts the weight
// file byte-for-byte as HammerOnline would, identical modules share one
// template, and the streaming callback fires once per campaign.
func TestRunFleetMatchesHammerOnline(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: trains a victim model; run without -short")
	}
	victim, err := TrainVictim(VictimConfig{Arch: "resnet20", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	off, err := InjectBackdoor(victim, AttackConfig{TargetClass: 2, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	hw := HardwareConfig{Seed: 3}
	want, err := HammerOnline(victim, off, hw)
	if err != nil {
		t.Fatal(err)
	}

	streamed := 0
	sum, err := RunFleet(victim, off, []FleetModule{
		{Name: "m0", Hardware: hw},
		{Name: "m1", Hardware: hw},
		{Name: "m2", Hardware: HardwareConfig{Seed: 3, Device: "F1"}},
	}, FleetConfig{Workers: 2, OnReport: func(FleetReport) { streamed++ }})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != 3 {
		t.Fatalf("OnReport fired %d times, want 3", streamed)
	}
	if sum.Failed != 0 {
		t.Fatalf("%d campaigns failed", sum.Failed)
	}
	if sum.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1 (m1 shares m0's identity)", sum.CacheHits)
	}
	for _, i := range []int{0, 1} {
		r := sum.Reports[i]
		if !bytes.Equal(r.Online.inner.CorruptedFile, want.inner.CorruptedFile) {
			t.Fatalf("campaign %d corrupted file differs from HammerOnline", i)
		}
		if r.Online.RMatch != want.RMatch || r.Online.Matched != want.Matched {
			t.Fatalf("campaign %d metrics differ from HammerOnline", i)
		}
	}
	if _, err := Evaluate(victim, off, sum.Reports[2].Online); err != nil {
		t.Fatalf("Evaluate on fleet report: %v", err)
	}

	if _, err := RunFleet(victim, off, []FleetModule{{Hardware: HardwareConfig{Device: "Z9"}}}, FleetConfig{}); err == nil {
		t.Fatal("unknown fleet device must fail")
	}
	if _, err := RunFleet(victim, off, nil, FleetConfig{}); err == nil {
		t.Fatal("empty fleet must fail")
	}
}

func TestTrainVictimUnknownArch(t *testing.T) {
	if _, err := TrainVictim(VictimConfig{Arch: "lenet"}); err == nil {
		t.Fatal("unknown architecture must fail")
	}
}

func TestHammerOnlineUnknownDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: trains a victim model; run without -short")
	}
	victim, err := TrainVictim(VictimConfig{Arch: "resnet20", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	off, err := InjectBackdoor(victim, AttackConfig{TargetClass: 1, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HammerOnline(victim, off, HardwareConfig{Device: "Z9"}); err == nil {
		t.Fatal("unknown device must fail")
	}
}

func TestInjectBackdoorRejectsBadTriggerSize(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: trains a victim model; run without -short")
	}
	victim, err := TrainVictim(VictimConfig{Arch: "resnet20", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{40, -2} {
		if _, err := InjectBackdoor(victim, AttackConfig{TargetClass: 1, Iterations: 1, TriggerSize: size}); err == nil {
			t.Fatalf("trigger size %d on a 32×32 victim must fail", size)
		}
	}
}

// TestEntryPointsRejectForeignVictim hands every entry point that takes
// (victim, offline[, online]) results produced from another victim.
func TestEntryPointsRejectForeignVictim(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: trains a victim model; run without -short")
	}
	a, err := TrainVictim(VictimConfig{Arch: "resnet20", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainVictim(VictimConfig{Arch: "vgg11", TrainSamples: 64, TestSamples: 32, Epochs: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	offA, err := InjectBackdoor(a, AttackConfig{TargetClass: 2, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	hw := HardwareConfig{Seed: 3}
	onA, err := HammerOnline(a, offA, hw)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Evaluate(b, offA, onA); err == nil {
		t.Error("Evaluate accepted another victim's offline result")
	}
	if _, err := HammerOnline(b, offA, hw); err == nil {
		t.Error("HammerOnline accepted another victim's offline result")
	}
	if _, err := ServeUnderFire(b, offA, hw, ServeOptions{}); err == nil {
		t.Error("ServeUnderFire accepted another victim's offline result")
	}
	if _, err := RunFleet(b, offA, []FleetModule{{Hardware: hw}}, FleetConfig{}); err == nil {
		t.Error("RunFleet accepted another victim's offline result")
	}
	short := &Online{inner: &core.OnlineResult{CorruptedFile: onA.inner.CorruptedFile[:quant.PageSize]}}
	if _, err := Evaluate(a, offA, short); err == nil {
		t.Error("Evaluate accepted a corrupted file of the wrong length")
	}
	if _, err := Evaluate(a, offA, onA); err != nil {
		t.Errorf("Evaluate on the attack's own victim: %v", err)
	}
}
