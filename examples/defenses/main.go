// Defense evaluation: runs a CFT+BR backdoor against three of the
// paper's §VI countermeasures — DeepDyve dynamic verification, RADAR
// MSB checksums (plus the adaptive bypass), and weight reconstruction
// (plus the defense-aware attacker) — and prints who wins each round.
//
//	go run ./examples/defenses
package main

import (
	"fmt"
	"log"

	"rowhammer/internal/core"
	"rowhammer/internal/defense"
	"rowhammer/internal/metrics"
	"rowhammer/internal/models"
	"rowhammer/internal/pretrain"
	"rowhammer/internal/quant"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	mcfg := models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 3}
	trained, err := pretrain.Train(pretrain.Config{
		Model: mcfg, TrainSamples: 1200, TestSamples: 400, Epochs: 3, Seed: 3,
	})
	if err != nil {
		return err
	}
	fmt.Printf("victim clean accuracy: %.1f%%\n\n", 100*trained.Accuracy)

	attack := func(forbidden byte, wrap func(func() float32) float32) (*core.Result, *quant.Quantizer, error) {
		m := trained.Model.Clone()
		q := quant.NewQuantizer(m)
		cfg := core.DefaultConfig(5, 2)
		cfg.Iterations = 100
		cfg.BitReduceEvery = 50
		cfg.Eta = 2
		cfg.Epsilon = 0.02
		cfg.ForbiddenBitMask = forbidden
		cfg.WrapLoss = wrap
		out, err := core.RunOffline(m, trained.Test.Head(32), cfg)
		return out, q, err
	}

	// ---- Round 1: DeepDyve. ----
	fmt.Println("== DeepDyve (dynamic verification) ==")
	out, q, err := attack(0, nil)
	if err != nil {
		return err
	}
	checker, err := pretrain.Train(pretrain.Config{
		Model: mcfg, TrainSamples: 1200, TestSamples: 400, Epochs: 3, Seed: 9,
	})
	if err != nil {
		return err
	}
	dd := &defense.DeepDyve{Main: q.Model(), Checker: checker.Model}
	rep := defense.EvaluateDeepDyve(dd, trained.Test, out.Trigger, 2)
	fmt.Printf("alarms on %.1f%% of triggered inputs, but %.1f%% still land on the target class\n",
		100*rep.AlarmRate, 100*rep.ASRDespiteDefense)
	fmt.Printf("re-queries recovered %.1f%% — Rowhammer flips persist in memory\n\n", 100*rep.RecoveredRate)

	// ---- Round 2: RADAR. ----
	fmt.Println("== RADAR (MSB checksums) ==")
	radar := defense.NewRADAR(512, 0x80)
	radar.Snapshot(out.OrigCodes)
	fmt.Printf("standard attack detected: %v\n", radar.Detected(out.BackdooredCodes))
	adaptive, qa, err := attack(0x80, nil)
	if err != nil {
		return err
	}
	asr := metrics.AttackSuccessRate(qa.Model(), trained.Test, adaptive.Trigger, 2)
	fmt.Printf("adaptive attack (avoids MSBs) detected: %v — its ASR: %.1f%%\n\n",
		radar.Detected(adaptive.BackdooredCodes), 100*asr)

	// ---- Round 3: weight reconstruction. ----
	fmt.Println("== Weight reconstruction (recovery) ==")
	unawareOut, qUn, err := attack(0, nil)
	if err != nil {
		return err
	}
	recon := defense.NewReconstructor(qUn.Model(), 64)
	before := metrics.AttackSuccessRate(qUn.Model(), trained.Test, unawareOut.Trigger, 2)
	undo := recon.Apply(qUn.Model())
	after := metrics.AttackSuccessRate(qUn.Model(), trained.Test, unawareOut.Trigger, 2)
	undo()
	fmt.Printf("unaware attacker: ASR %.1f%% → %.1f%% after reconstruction\n", 100*before, 100*after)

	awareModel := trained.Model.Clone()
	qAware := quant.NewQuantizer(awareModel)
	recAware := defense.NewReconstructor(awareModel, 64)
	cfg := core.DefaultConfig(5, 2)
	cfg.Iterations = 100
	cfg.BitReduceEvery = 50
	cfg.Eta = 2
	cfg.Epsilon = 0.02
	cfg.WrapLoss = recAware.WrapLossWith(awareModel)
	awareOut, err := core.RunOffline(awareModel, trained.Test.Head(32), cfg)
	if err != nil {
		return err
	}
	_ = qAware
	undo2 := recAware.Apply(awareModel)
	awareASR := metrics.AttackSuccessRate(awareModel, trained.Test, awareOut.Trigger, 2)
	undo2()
	fmt.Printf("defense-aware attacker: ASR %.1f%% *after* reconstruction — the defense is bypassed\n",
		100*awareASR)

	return nil
}
