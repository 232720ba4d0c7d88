// Cloud co-location scenario: a victim inference service and an
// unprivileged attacker process share one physical DRAM module, the
// paper's threat model (§III). The example walks the exact online-phase
// sequence — templating, frame-cache massaging, victim model load,
// hammering — and demonstrates the two stealth properties: the on-disk
// model stays pristine, and evicting the page cache (a "reboot")
// removes every trace of the attack. A second run then injects
// per-pass flip failures (real modules do not fire every weak cell
// every time) and shows the robust engine's verify → re-hammer rounds
// recovering the flips a single shot loses.
//
//	go run ./examples/cloudattack
package main

import (
	"bytes"
	"fmt"
	"log"

	"rowhammer/internal/core"
	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
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
	// ---- The cloud host: one DRAM module shared by all tenants. ----
	module, err := dram.NewModuleForSize(192<<20, dram.PaperDDR3(), 42)
	if err != nil {
		return err
	}
	host := memsys.NewSystem(module)

	// ---- The victim tenant deploys its model. ----
	fmt.Println("[victim] training and deploying a ResNet-20 classifier…")
	mcfg := models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 3}
	trained, err := pretrain.Train(pretrain.Config{
		Model: mcfg, TrainSamples: 1500, TestSamples: 400, Epochs: 3, Seed: 3,
	})
	if err != nil {
		return err
	}
	deployModel := trained.Model.Clone()
	q := quant.NewQuantizer(deployModel)
	weightFile := q.WeightFileBytes()
	host.WriteFile("service/model.bin", weightFile)
	fmt.Printf("[victim] model.bin: %d pages, clean accuracy %.1f%%\n",
		len(weightFile)/memsys.PageSize, 100*trained.Accuracy)

	// ---- The attacker tenant prepares offline. ----
	fmt.Println("[attacker] offline: learning trigger + bit flips (CFT+BR)…")
	attackModel := trained.Model.Clone()
	acfg := core.DefaultConfig(5, 2)
	acfg.Iterations = 100
	acfg.BitReduceEvery = 50
	acfg.Eta = 2
	acfg.Epsilon = 0.02
	offline, err := core.RunOffline(attackModel, trained.Test.Head(32), acfg)
	if err != nil {
		return err
	}
	fmt.Printf("[attacker] %d single-bit flips chosen across separate pages\n", offline.NFlip)

	// ---- Online: template, massage, hammer. ----
	fmt.Println("[attacker] online: templating DRAM, massaging the page cache, hammering…")
	reqs := core.RequirementsFromCodes(offline.OrigCodes, offline.BackdooredCodes)
	ocfg := core.DefaultOnlineConfig(len(weightFile) / memsys.PageSize)
	ocfg.WeightFileName = "service/model.bin"
	onres, err := core.ExecuteOnline(host, weightFile, reqs, ocfg)
	if err != nil {
		return err
	}
	fmt.Printf("[attacker] %d/%d required flips landed, r_match %.2f%%\n",
		onres.NMatch, onres.NRequired, onres.RMatch)

	// ---- The victim service keeps serving… the backdoored weights. ----
	serving := trained.Model.Clone()
	qs := quant.NewQuantizer(serving)
	qs.LoadWeightFileBytes(onres.CorruptedFile)
	ta := metrics.TestAccuracy(serving, trained.Test)
	asr := metrics.AttackSuccessRate(serving, trained.Test, offline.Trigger, 2)
	fmt.Printf("[victim]  service accuracy still %.1f%% — nothing looks wrong\n", 100*ta)
	fmt.Printf("[attacker] trigger-stamped requests → class 2 at %.1f%% ASR\n", 100*asr)

	// ---- Stealth property 1: the disk copy is untouched. ----
	disk, err := host.ReadFileFromDisk("service/model.bin")
	if err != nil {
		return err
	}
	fmt.Printf("[audit]   on-disk model unchanged: %v\n", bytes.Equal(disk, weightFile))

	// ---- Stealth property 2: eviction erases every trace. ----
	if err := host.EvictFile("service/model.bin"); err != nil {
		return err
	}
	reloaded := host.NewProcess()
	base, err := reloaded.MmapFile("service/model.bin")
	if err != nil {
		return err
	}
	fresh, err := reloaded.ReadMapped(base, len(weightFile))
	if err != nil {
		return err
	}
	fmt.Printf("[audit]   after page-cache eviction the clean model returns: %v\n",
		bytes.Equal(fresh, weightFile))

	// ---- Robustness: the same attack on a lossy module. ----
	// Real DRAM is not the deterministic simulator above: a weak cell
	// fires on some hammer passes and not others. Inject a 50% per-pass
	// flip failure and compare a single shot against the multi-round
	// verify/re-hammer engine on a fresh host.
	fmt.Println()
	fmt.Println("[fault]   re-running on a lossy module (50% per-pass flip failure)…")
	for _, robust := range []bool{false, true} {
		module, err := dram.NewModuleForSize(192<<20, dram.PaperDDR3(), 42)
		if err != nil {
			return err
		}
		lossy := memsys.NewSystem(module)
		lossy.InjectFaults(dram.FaultModel{FlipFailProb: 0.5, Seed: 9})
		lossy.WriteFile("service/model.bin", weightFile)
		cfg := ocfg
		label := "single shot"
		if robust {
			cfg.Rounds = 5
			cfg.Escalation = 2
			cfg.RetemplatePasses = 2
			label = "5-round retry"
		}
		res, err := core.ExecuteOnline(lossy, weightFile, reqs, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("[fault]   %-11s → %d/%d flips fired over %d round(s), r_match %.2f%%\n",
			label, res.NMatch, res.NRequired, res.Report.RoundsExecuted(), res.RMatch)
	}
	return nil
}
