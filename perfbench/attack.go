package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"time"

	"rowhammer"
	"rowhammer/internal/core"
	"rowhammer/internal/data"
	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/metrics"
	"rowhammer/internal/models"
	"rowhammer/internal/nn"
	"rowhammer/internal/pretrain"
	"rowhammer/internal/quant"
	"rowhammer/internal/tensor"
)

// The attack workload runs what rowhammer.TrainVictim, InjectBackdoor,
// HammerOnline and Evaluate run with their defaults, calling the layers
// directly so each call can be timed. attack_test.go holds the outputs
// byte-identical to the public API.
const (
	attackIterations  = 100 // InjectBackdoor's default
	attackImages      = 32  // InjectBackdoor's attack set
	attackModuleMB    = 192 // HammerOnline's default module
	attackMeasureSeed = 7   // HammerOnline's default hardware seed
	// partsTolerance bounds the share of a traced attack that falls
	// outside every listed span (the benchmark's own glue code).
	partsTolerance = 0.02
)

// victim is a trained clean model with its data splits.
type victim struct {
	res  *pretrain.Result
	mcfg models.Config
}

// victimSeed maps the workload seed to the victim's training seed
// (rowhammer.TrainVictim treats 0 as 1).
func victimSeed(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// trainVictim trains the reference victim exactly as
// rowhammer.TrainVictim(VictimConfig{Seed: seed}) does.
func trainVictim(seed int64) (*victim, error) {
	mcfg := models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: seed}
	res, err := pretrain.TrainCached(pretrain.Config{
		Model: mcfg,
		Data:  data.SynthCIFAR(0, seed),
		Seed:  seed,
	})
	if err != nil {
		return nil, err
	}
	return &victim{res: res, mcfg: mcfg}, nil
}

// pages is the deployed weight file's page count.
func (v *victim) pages() int {
	return (v.res.Model.NumParams() + quant.PageSize - 1) / quant.PageSize
}

// flipBudget is InjectBackdoor's default N_flip: pages/7, at least 3,
// at most the page count.
func (v *victim) flipBudget() int {
	n := v.pages() / 7
	if n < 3 {
		n = 3
	}
	if n > v.pages() {
		n = v.pages()
	}
	return n
}

// offlineConfig is InjectBackdoor's configuration for a target class.
func (v *victim) offlineConfig(target int) core.Config {
	cfg := core.DefaultConfig(v.flipBudget(), target)
	cfg.Iterations = attackIterations
	cfg.BitReduceEvery = attackIterations / 2
	cfg.Eta = 2
	cfg.Epsilon = 0.02
	return cfg
}

// attackOut is one complete attack's product.
type attackOut struct {
	off    *core.Result
	on     *core.OnlineResult
	report rowhammer.Report
}

// runAttack runs offline → online → evaluate for one target class.
// Every layer call sits in a span under the attack's root span.
func runAttack(v *victim, target int, tr *tracer, op int) (*attackOut, error) {
	root := tr.begin("attack", op, -1)
	defer tr.end(root)
	timed := func(name string, fn func() error) error {
		id := tr.begin(name, op, root)
		defer tr.end(id)
		return fn()
	}
	clone := func() (m *nn.Model, err error) {
		err = timed("pretrain.clone", func() error {
			m, err = pretrain.CloneModel(v.mcfg, v.res.Model)
			return err
		})
		return m, err
	}

	// Offline: rowhammer.InjectBackdoor.
	model, err := clone()
	if err != nil {
		return nil, err
	}
	attackSet := v.res.Test.Head(attackImages)
	var off *core.Result
	if err := timed("core.offline", func() (err error) {
		off, err = core.RunOffline(model, attackSet, v.offlineConfig(target))
		return err
	}); err != nil {
		return nil, fmt.Errorf("offline: %w", err)
	}

	// Online: rowhammer.HammerOnline on the paper's DDR3 module.
	var sys *memsys.System
	if err := timed("dram.module", func() error {
		mod, err := dram.NewModuleForSize(attackModuleMB<<20, dram.PaperDDR3(), attackMeasureSeed)
		sys = memsys.NewSystem(mod)
		return err
	}); err != nil {
		return nil, err
	}
	clean, err := clone()
	if err != nil {
		return nil, err
	}
	var cleanFile []byte
	_ = timed("quant.load", func() error {
		cleanFile = quant.NewQuantizer(clean).WeightFileBytes()
		return nil
	})
	reqs := core.RequirementsFromCodes(off.OrigCodes, off.BackdooredCodes)
	ocfg := core.DefaultOnlineConfig(len(cleanFile) / memsys.PageSize)
	ocfg.MeasureSeed = attackMeasureSeed
	var on *core.OnlineResult
	onID := tr.begin("core.online", op, root)
	on, err = core.ExecuteOnline(sys, cleanFile, reqs, ocfg)
	tr.end(onID)
	if err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	stageParts(tr, op, onID, on.Report.Timing)

	// Evaluate: rowhammer.Evaluate.
	test := v.res.Test
	out := &attackOut{off: off, on: on, report: rowhammer.Report{
		CleanAccuracy: v.res.Accuracy,
		NFlipOffline:  off.NFlip,
		NFlipOnline:   on.NFlipOnline,
		RMatch:        on.RMatch,
	}}
	var offQM *quant.QModel
	_ = timed("quant.load", func() error { offQM = quant.NewQModel(off.Quantizer); return nil })
	_ = timed("metrics.eval", func() error {
		ev := metrics.NewEvaluator(offQM)
		out.report.OfflineTA = ev.TestAccuracy(test)
		out.report.OfflineASR = ev.AttackSuccessRate(test, off.Trigger, target)
		return nil
	})
	victimModel, err := clone()
	if err != nil {
		return nil, err
	}
	var qm *quant.QModel
	_ = timed("quant.load", func() error {
		qv := quant.NewQuantizer(victimModel)
		qv.LoadWeightFileBytes(on.CorruptedFile)
		qm = quant.NewQModel(qv)
		return nil
	})
	_ = timed("metrics.eval", func() error {
		ev := metrics.NewEvaluator(qm)
		out.report.OnlineTA = ev.TestAccuracy(test)
		out.report.OnlineASR = ev.AttackSuccessRate(test, off.Trigger, target)
		return nil
	})
	return out, nil
}

// stageParts attributes ExecuteOnline's own StageTiming to its span.
func stageParts(tr *tracer, op, parent int, t core.StageTiming) {
	tr.part("profile.template", op, parent, time.Duration(t.ProfileNs))
	tr.part("profile.plan", op, parent, time.Duration(t.PlanNs))
	tr.part("profile.retemplate", op, parent, time.Duration(t.RetemplateNs))
	tr.part("memsys.massage", op, parent, time.Duration(t.MassageNs))
	tr.part("dram.hammer", op, parent, time.Duration(t.HammerNs))
	tr.part("core.verify", op, parent, time.Duration(t.VerifyNs))
}

// checkAttack applies the attack workload's correctness checks.
func checkAttack(r *report, i int, v *victim, a *attackOut) bool {
	before := len(r.problems)
	on, rep := a.on, a.report
	r.check(a.off.NFlip <= v.flipBudget(), "attack %d: N_flip %d exceeds budget %d", i, a.off.NFlip, v.flipBudget())
	r.check(on.NMatch == on.NRequired && on.Unmatched == 0,
		"attack %d: %d of %d required flips landed (%d unmatched) on the fault-free module", i, on.NMatch, on.NRequired, on.Unmatched)
	if on.AccidentalFlips == 0 && on.NMatch == on.NRequired {
		r.check(rep.OnlineTA == rep.OfflineTA && rep.OnlineASR == rep.OfflineASR,
			"attack %d: online TA/ASR %.4f/%.4f differ from offline %.4f/%.4f with no accidental flip",
			i, rep.OnlineTA, rep.OnlineASR, rep.OfflineTA, rep.OfflineASR)
	}
	return len(r.problems) == before
}

func runAttackWorkload(opt options) (*report, error) {
	r := &report{layers: map[string]float64{}}
	tr := opt.tr

	start := time.Now()
	v, err := trainVictim(victimSeed(opt.seed))
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(start)
	tr.interval("pretrain.train", -1, -1, start, start.Add(r.setup))

	rng := rand.New(rand.NewSource(opt.seed))
	var times []time.Duration
	timedStart := time.Now()
	for len(times) == 0 || time.Since(timedStart).Seconds() < opt.seconds {
		target := rng.Intn(v.mcfg.Classes)
		debug.FreeOSMemory() // every attack starts from a collected heap
		t0 := time.Now()
		a, err := runAttack(v, target, tr, len(times))
		if err != nil {
			return nil, fmt.Errorf("attack %d (target %d): %w", len(times), target, err)
		}
		times = append(times, time.Since(t0))
		r.attempted++
		if !checkAttack(r, len(times)-1, v, a) {
			r.failed++
		}
		fmt.Fprintf(os.Stderr, "attack %d: target %d, %.2f s, N_flip %d, r_match %.2f%%, TA %.3f ASR %.3f\n",
			len(times)-1, target, times[len(times)-1].Seconds(), a.off.NFlip, a.on.RMatch, a.report.OnlineTA, a.report.OnlineASR)
	}
	timedWall := time.Since(timedStart)
	r.op = median(times)
	r.meta = map[string]any{
		"attacks":           len(times),
		"attack_s":          secondsOf(times),
		"trainer_workers":   tensor.MaxWorkers(),
		"trainer_shards":    nn.DefaultTrainShards,
		"eval_workers":      tensor.MaxWorkers(),
		"victim_seed":       victimSeed(opt.seed),
		"victim_accuracy":   v.res.Accuracy,
		"parts_tolerance":   partsTolerance,
		"flip_budget":       v.flipBudget(),
		"weight_file_pages": v.pages(),
	}
	if tr == nil {
		return r, nil
	}

	// Per-layer metrics: self time per span name, per attack.
	n := float64(len(times))
	self := selfByName(tr.spans)
	perAttackMs := func(name string) float64 { return ms(self[name]) / n }
	r.layers["pretrain.train_s"] = r.setup.Seconds()
	r.layers["pretrain.clone_ms"] = perAttackMs("pretrain.clone")
	r.layers["core.offline_s"] = perAttackMs("core.offline") / 1000
	r.layers["metrics.eval_ms"] = perAttackMs("metrics.eval")
	r.layers["quant.load_ms"] = perAttackMs("quant.load")
	r.layers["dram.module_ms"] = perAttackMs("dram.module")
	r.layers["core.online_self_ms"] = perAttackMs("core.online")
	for _, name := range []string{"profile.template", "profile.plan", "profile.retemplate", "memsys.massage", "dram.hammer", "core.verify"} {
		r.layers[name+"_ms"] = perAttackMs(name)
	}
	total := map[string]time.Duration{}
	for _, s := range tr.spans {
		total[s.Name] += time.Duration(s.dur())
	}
	r.layers["core.online_s"] = total["core.online"].Seconds() / n

	// Parts-sum check: the listed spans' self times against the traced
	// attack time; what is left is the attack span's own self time.
	unattributed := float64(self["attack"]) / float64(total["attack"])
	r.layers["trace.unattributed_share"] = unattributed
	r.check(unattributed <= partsTolerance, "attack parts sum: %.2f%% of the traced attack time lies outside every span (tolerance %.0f%%)",
		100*unattributed, 100*partsTolerance)

	// Probes run after the timed section.
	fwd, calls, err := probeFwdBwd(v)
	if err != nil {
		return nil, err
	}
	r.layers["nn.fwdbwd_ms"], r.layers["nn.fwdbwd_calls"] = ms(fwd), float64(calls)
	score, scoreCalls, err := probeScore(v)
	if err != nil {
		return nil, err
	}
	r.layers["quant.score_ms"], r.layers["quant.score_calls"] = ms(score), float64(scoreCalls)
	traceLayers(r, tr, timedWall)
	return r, nil
}

// probeFwdBwd times one nn.Trainer.ForwardBackward over the attack
// batch, as RunOffline calls it (frozen batch norm, one shard), and
// returns it with the number of calls one attack makes.
func probeFwdBwd(v *victim) (time.Duration, int, error) {
	model, err := pretrain.CloneModel(v.mcfg, v.res.Model)
	if err != nil {
		return 0, 0, err
	}
	nn.FreezeBatchNorm(model.Root)
	batch := v.res.Test.Head(attackImages).Batches(attackImages)[0]
	trainer := nn.NewTrainer(model, 0)
	var times []time.Duration
	for i := 0; i < 21; i++ {
		model.ZeroGrad()
		t0 := time.Now()
		trainer.ForwardBackward(batch.Images, batch.Labels, 0.5)
		if i > 0 { // the first call sizes the trainer's buffers
			times = append(times, time.Since(t0))
		}
	}
	return median(times), 2 * attackIterations, nil
}

// probeScore times one quant.Scorer.ScoreInto over the refinement batch
// with RefineCandidates candidates per group, cycling through the
// groups, and returns it with an upper bound of the calls one attack
// makes: groups × enforcement steps.
func probeScore(v *victim) (time.Duration, int, error) {
	model, err := pretrain.CloneModel(v.mcfg, v.res.Model)
	if err != nil {
		return 0, 0, err
	}
	cfg := v.offlineConfig(0)
	q := quant.NewQuantizer(model)
	qm := quant.NewQModel(q)
	refine := v.res.Test.Head(cfg.RefineBatch).Batches(cfg.RefineBatch)[0]
	trig := refine.Images.Clone()
	shape := model.InputShape
	data.NewSquareTrigger(shape[0], shape[1], shape[2], cfg.TriggerSize).Apply(trig)
	targets := make([]int, len(refine.Labels))
	scorer := quant.NewScorer(qm, refine.Images, trig, refine.Labels, targets, cfg.Alpha)

	pages := v.pages()
	groupPages := (pages + cfg.NFlip - 1) / cfg.NFlip
	groups := (pages + groupPages - 1) / groupPages
	steps := (cfg.Iterations + cfg.BitReduceEvery - 1) / cfg.BitReduceEvery
	var (
		times  []time.Duration
		losses []float32
		cands  = make([]quant.Candidate, cfg.RefineCandidates)
	)
	for i := 0; i < 4*groups+1; i++ {
		lo := (i % groups) * groupPages * quant.PageSize
		for c := range cands {
			w := lo + 97*c
			if w >= q.NumWeights() {
				w = q.NumWeights() - 1 - c
			}
			cands[c] = quant.Candidate{Weight: w, Code: q.Code(w) ^ 0x10}
		}
		t0 := time.Now()
		losses, _ = scorer.ScoreInto(losses, cands)
		if i > 0 { // the first call fills the activation cache
			times = append(times, time.Since(t0))
		}
	}
	return median(times), groups * steps, nil
}
