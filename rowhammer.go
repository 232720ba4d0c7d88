package rowhammer

import (
	"cmp"
	"fmt"

	"rowhammer/internal/campaign"
	"rowhammer/internal/campaign/server"
	"rowhammer/internal/core"
	"rowhammer/internal/data"
	"rowhammer/internal/memsys"
	"rowhammer/internal/metrics"
	"rowhammer/internal/models"
	"rowhammer/internal/pretrain"
	"rowhammer/internal/profile"
	"rowhammer/internal/quant"
	"rowhammer/internal/serve"
)

// Trigger is the backdoor input pattern Δx (a square patch whose pixels
// the attack optimizes).
type Trigger = data.Trigger

// Victim bundles a trained clean model with its data splits — the
// deployment the attacker targets.
type Victim struct {
	result *pretrain.Result
	dcfg   data.SynthConfig
	epochs int
	seed   int64
}

// VictimConfig selects the victim model and training scale.
type VictimConfig struct {
	// Arch is one of the supported architectures: resnet20, resnet32,
	// resnet18, resnet34, resnet50, vgg11, vgg16, bin-resnet32.
	Arch string
	// Classes is the task size; 0 picks the architecture's default
	// (10, or 100 for the ImageNet-scale ResNets).
	Classes int
	// WidthMult scales channel counts; 0 means 0.25 (laptop friendly).
	WidthMult float64
	// TrainSamples/TestSamples/Epochs size the synthetic pretraining;
	// zero values pick quick defaults.
	TrainSamples int
	TestSamples  int
	Epochs       int
	// Seed fixes all randomness.
	Seed int64
}

// TrainVictim trains (and caches per identical config) a clean victim
// model on the built-in synthetic task.
func TrainVictim(cfg VictimConfig) (*Victim, error) {
	if cfg.Arch == "" {
		cfg.Arch = "resnet20"
	}
	if cfg.WidthMult == 0 {
		cfg.WidthMult = 0.25
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	classes := cfg.Classes
	dcfg := data.SynthCIFAR(0, cfg.Seed)
	if classes == 0 {
		classes = 10
		if cfg.Arch == "resnet34" || cfg.Arch == "resnet50" {
			classes = 100
			dcfg = data.SynthImageNet(0, cfg.Seed)
		}
	}
	res, err := pretrain.TrainCached(pretrain.Config{
		Model:        models.Config{Arch: cfg.Arch, Classes: classes, WidthMult: cfg.WidthMult, Seed: cfg.Seed},
		Data:         dcfg,
		TrainSamples: cfg.TrainSamples,
		TestSamples:  cfg.TestSamples,
		Epochs:       cfg.Epochs,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Victim{result: res, dcfg: dcfg, epochs: cfg.Epochs, seed: cfg.Seed}, nil
}

// CleanAccuracy returns the victim's clean test accuracy.
func (v *Victim) CleanAccuracy() float64 { return v.result.Accuracy }

// NumParams returns the victim's parameter count (one byte each when
// deployed 8-bit quantized).
func (v *Victim) NumParams() int { return v.result.Model.NumParams() }

// WeightFilePages returns how many 4 KB pages the deployed weight file
// occupies — the hard ceiling on the attack's flip budget.
func (v *Victim) WeightFilePages() int {
	return (v.NumParams() + quant.PageSize - 1) / quant.PageSize
}

// AttackConfig drives the offline phase (Algorithm 1).
type AttackConfig struct {
	// TargetClass is the backdoor's target label.
	TargetClass int
	// NFlip is the bit-flip budget; 0 picks pages/7 (≥3).
	NFlip int
	// Iterations is the optimization length; 0 picks 100.
	Iterations int
	// Alpha blends clean (1−α) and triggered (α) losses; 0 picks 0.5.
	Alpha float32
	// Epsilon is the FGSM trigger step; 0 picks 0.02.
	Epsilon float32
	// TriggerSize is the square trigger edge; 0 picks 10.
	TriggerSize int
}

// Offline is the offline-phase product: the backdoored weight file and
// the learned trigger.
type Offline struct {
	inner   *core.Result
	victim  *Victim
	target  int
	NFlip   int
	Trigger *Trigger
}

// checkVictim rejects an offline result that was not produced from v's
// trained model: its flip requirements and trigger mean nothing there.
func (o *Offline) checkVictim(v *Victim) error {
	if o.victim.result != v.result {
		return fmt.Errorf("rowhammer: offline result was produced from a different victim")
	}
	return nil
}

// InjectBackdoor runs Algorithm 1 (CFT+BR) against a fresh clone of the
// victim and returns the flip set and trigger.
func InjectBackdoor(v *Victim, cfg AttackConfig) (*Offline, error) {
	model := v.result.Model.Clone()
	nflip := cfg.NFlip
	if nflip == 0 {
		nflip = v.WeightFilePages() / 7
		if nflip < 3 {
			nflip = 3
		}
		if nflip > v.WeightFilePages() {
			nflip = v.WeightFilePages()
		}
	}
	acfg := core.DefaultConfig(nflip, cfg.TargetClass)
	acfg.Iterations = cmp.Or(cfg.Iterations, 100)
	acfg.BitReduceEvery = acfg.Iterations / 2
	if acfg.BitReduceEvery < 1 {
		acfg.BitReduceEvery = 1
	}
	acfg.Eta = 2
	acfg.Epsilon = cmp.Or(cfg.Epsilon, 0.02)
	if cfg.Alpha != 0 {
		acfg.Alpha = cfg.Alpha
	}
	if cfg.TriggerSize != 0 {
		acfg.TriggerSize = cfg.TriggerSize
	}
	attackSet := v.result.Test.Head(32)
	out, err := core.RunOffline(model, attackSet, acfg)
	if err != nil {
		return nil, err
	}
	return &Offline{
		inner:   out,
		victim:  v,
		target:  cfg.TargetClass,
		NFlip:   out.NFlip,
		Trigger: out.Trigger,
	}, nil
}

// OfflineMetrics evaluates the backdoored model (as the attacker sees
// it offline): test accuracy and attack success rate. The evaluation
// runs on the int8 engine — the deployment form whose codes the attack
// actually flips — with batches fanned out across the worker pool.
func (o *Offline) OfflineMetrics() (ta, asr float64) {
	ev := metrics.NewEvaluator(quant.NewQModel(o.inner.Quantizer))
	test := o.victim.result.Test
	return ev.TestAccuracy(test), ev.AttackSuccessRate(test, o.inner.Trigger, o.target)
}

// HardwareConfig selects the simulated DRAM system the online phase
// runs on.
type HardwareConfig struct {
	// Device is a Table I chip name ("A1" … "N1") or empty for the
	// paper's DDR3 module.
	Device string
	// ModuleMB is the DRAM size; 0 picks 192 MB (room for the paper's
	// 128 MB templating buffer).
	ModuleMB int
	// Sides is the hammer pattern width; 0 picks 2 (double-sided, the
	// DDR3 configuration) — use 7 for DDR4 devices.
	Sides int
	// Seed fixes the vulnerable-cell layout and measurement noise.
	Seed int64

	// Robustness knobs (all zero = the deterministic single-shot
	// engine, byte-identical to previous releases).

	// Rounds is the verify/re-hammer round budget (≤1 = single shot).
	Rounds int
	// Escalation multiplies the re-hammer activation budget each retry
	// round (0 or 1 = none); budget above 1.0 spills into additional
	// full-intensity hammer passes per pending row.
	Escalation float64
	// RetemplatePasses bounds adaptive buffer growth / re-sweeps when
	// the placement leaves requirements unmatched.
	RetemplatePasses int
	// FlipFailProb is the per-pass probability that a weak cell fails
	// to fire despite sufficient disturbance (fault injection).
	FlipFailProb float64
	// TRRJitter scales a per-pass uniform perturbation of the
	// disturbance level, modeling TRR-escape variability.
	TRRJitter float64
	// FaultSeed seeds the deterministic fault streams; 0 picks 1 when
	// any fault knob is set.
	FaultSeed int64
}

// AttackRound mirrors one verify/re-hammer round of the robust engine.
type AttackRound struct {
	Round        int
	RowsHammered int
	// NMatch is the cumulative count of required flips verified fired
	// after this round; Missing is what still has not.
	NMatch  int
	Missing int
}

// Online is the outcome of the hammering phase.
type Online struct {
	inner *core.OnlineResult
	// RMatch is the DRAM match rate (percent).
	RMatch float64
	// NFlipOnline counts the bits that actually flipped.
	NFlipOnline int
	// Matched / Required report how much of the plan landed.
	Matched  int
	Required int
	// Accidental counts extra flips in disturbed pages.
	Accidental int
	// Unmatched counts requirements the planner could not place on any
	// flippy page even after re-templating.
	Unmatched int
	// Retemplated counts adaptive re-templating passes taken.
	Retemplated int
	// Rounds reports the verify/re-hammer progress, one entry per
	// executed hammer round.
	Rounds []AttackRound
}

// spec fills campaignd's wire form with the config — the one canonical
// form every online entry point resolves through (server.JobSpec.Job),
// so a HardwareConfig gets exactly the defaults a campaignd submission
// gets. Seed keys both the weak-cell layout and the measurement noise.
func (hw HardwareConfig) spec(file []byte, reqs []profile.PageRequirement) server.JobSpec {
	return server.JobSpec{
		WeightFile: file,
		Reqs:       reqs,
		Module: server.ModuleSpec{
			Device:       hw.Device,
			SizeMB:       hw.ModuleMB,
			Seed:         hw.Seed,
			FlipFailProb: hw.FlipFailProb,
			TRRJitter:    hw.TRRJitter,
			FaultSeed:    hw.FaultSeed,
		},
		Online: server.OnlineSpec{
			Sides:            hw.Sides,
			MeasureSeed:      hw.Seed,
			Rounds:           hw.Rounds,
			Escalation:       hw.Escalation,
			RetemplatePasses: hw.RetemplatePasses,
		},
	}
}

// attackInputs returns what every online entry point attacks: the
// victim's clean deployed weight file and the offline phase's per-page
// flip requirements.
func attackInputs(v *Victim, off *Offline) ([]byte, []profile.PageRequirement, error) {
	if err := off.checkVictim(v); err != nil {
		return nil, nil, err
	}
	clean := v.result.Model.Clone()
	file := quant.NewQuantizer(clean).WeightFileBytes()
	return file, core.RequirementsFromCodes(off.inner.OrigCodes, off.inner.BackdooredCodes), nil
}

// singleModule resolves hw for the victim's attack and builds the one
// module HammerOnline and ServeUnderFire both template and attack.
func singleModule(v *Victim, off *Offline, hw HardwareConfig) (campaign.Job, *memsys.System, error) {
	file, reqs, err := attackInputs(v, off)
	if err != nil {
		return campaign.Job{}, nil, err
	}
	job, err := hw.spec(file, reqs).Job(0)
	if err != nil {
		return campaign.Job{}, nil, fmt.Errorf("rowhammer: %w", err)
	}
	sys, err := job.Module.NewSystem()
	return job, sys, err
}

// wrapOnline lifts the internal online result into the public shape.
func wrapOnline(res *core.OnlineResult) *Online {
	on := &Online{
		inner:       res,
		RMatch:      res.RMatch,
		NFlipOnline: res.NFlipOnline,
		Matched:     res.NMatch,
		Required:    res.NRequired,
		Accidental:  res.AccidentalFlips,
		Unmatched:   res.Unmatched,
		Retemplated: len(res.Report.Retemplates),
	}
	for _, r := range res.Report.Rounds {
		on.Rounds = append(on.Rounds, AttackRound{
			Round:        r.Round,
			RowsHammered: r.RowsHammered,
			NMatch:       r.NMatch,
			Missing:      r.Missing,
		})
	}
	return on
}

// HammerOnline executes the online phase: profile, plan, massage, let
// the victim map its weight file, hammer, and read back the corrupted
// file.
func HammerOnline(v *Victim, off *Offline, hw HardwareConfig) (*Online, error) {
	job, sys, err := singleModule(v, off, hw)
	if err != nil {
		return nil, err
	}
	res, err := core.ExecuteOnline(sys, job.WeightFile, job.Reqs, job.Online)
	if err != nil {
		return nil, err
	}
	return wrapOnline(res), nil
}

// Report is the end-to-end evaluation of the attack.
type Report struct {
	CleanAccuracy float64
	OfflineTA     float64
	OfflineASR    float64
	OnlineTA      float64
	OnlineASR     float64
	NFlipOffline  int
	NFlipOnline   int
	RMatch        float64
}

// Evaluate loads the corrupted weight file into a fresh victim instance
// and measures the deployed backdoor.
func Evaluate(v *Victim, off *Offline, on *Online) (*Report, error) {
	if err := off.checkVictim(v); err != nil {
		return nil, err
	}
	victimModel := v.result.Model.Clone()
	qv := quant.NewQuantizer(victimModel)
	if n, want := len(on.inner.CorruptedFile), qv.NumPages()*quant.PageSize; n != want {
		return nil, fmt.Errorf("rowhammer: online result holds a %d-byte weight file, the victim's is %d bytes", n, want)
	}
	offTA, offASR := off.OfflineMetrics()
	rep := &Report{
		CleanAccuracy: v.CleanAccuracy(),
		OfflineTA:     offTA,
		OfflineASR:    offASR,
		NFlipOffline:  off.NFlip,
		NFlipOnline:   on.NFlipOnline,
		RMatch:        on.RMatch,
	}
	qv.LoadWeightFileBytes(on.inner.CorruptedFile)
	// The victim serves the corrupted file through the int8 engine —
	// exactly what deployment-form quantized inference would run. The
	// evaluator probes the engine's concurrency contract once and reuses
	// the decision for both metrics.
	ev := metrics.NewEvaluator(quant.NewQModel(qv))
	test := v.result.Test
	rep.OnlineTA = ev.TestAccuracy(test)
	rep.OnlineASR = ev.AttackSuccessRate(test, off.Trigger, off.target)
	return rep, nil
}

// ServeOptions configures the victim-under-fire run: the live serving
// scenario where the online attack hammers weights while the victim
// answers queries and DeepDyve watches for disagreement.
type ServeOptions struct {
	// Workers is the server's executor count (default 1).
	Workers int
	// BatchMax is the micro-batch size cap (default 32).
	BatchMax int
	// ReplayQueries is the detector replay volume per measurement
	// window (default 256).
	ReplayQueries int
	// TriggerFraction is the share of replay queries carrying the
	// trigger (default 0.5).
	TriggerFraction float64
	// LiveClients drives that many real blocking request loops through
	// the server for wall-clock stats (default 0 = off).
	LiveClients int
	// Seed fixes the replay and simulated-arrival streams (default:
	// the hardware seed).
	Seed int64
}

// ServeWindow is one window of the attack-under-load timeline: window 0
// is the intact victim, window k the state after hammer round k.
type ServeWindow struct {
	Window, Round int
	// FlipsApplied is the cumulative bit distance from the clean
	// deployment; EpochSeq the engine snapshot serving at the time.
	FlipsApplied int
	EpochSeq     uint64
	// TA/ASR are the victim's live accuracy and attack success rate.
	TA, ASR float64
	// AlarmRate is DeepDyve's disagreement rate over the window's
	// replay stream.
	AlarmRate float64
	// SimQPS/SimP50Ns/SimP99Ns/SimShed are the window's deterministic
	// virtual-time service quality.
	SimQPS             float64
	SimP50Ns, SimP99Ns int64
	SimShed            int
}

// ServeTimeline is the full victim-under-fire result: the online attack
// outcome plus the interleaved serving/detection trajectory.
type ServeTimeline struct {
	// Online is the attack outcome, as HammerOnline reports it.
	Online *Online
	// Windows is the deterministic timeline (fixed seed, any worker
	// count).
	Windows           []ServeWindow
	BaselineAlarmRate float64
	Detected          bool
	// DetectionWindow / DetectionLagQueries locate detection on the
	// timeline (-1 when the replay stream never alarmed above
	// baseline).
	DetectionWindow     int
	DetectionLagQueries int
	// LiveQPS/LiveServed/LiveShed/LiveMeanBatch are wall-clock traffic
	// numbers when LiveClients > 0 (not deterministic, not part of the
	// report contract).
	LiveQPS       float64
	LiveServed    int64
	LiveShed      int64
	LiveMeanBatch float64
}

// checkerSeedOffset separates the DeepDyve checker's training seed from
// the victim's: the checker is a resnet20 trained on the victim's task
// with seed victim+1000, served int8 like the victim.
const checkerSeedOffset = 1000

// ServeUnderFire runs the online attack against a victim that keeps
// serving: the weight file is hammered round by round, each round's
// partially corrupted file is hot-swapped into the live int8 engine
// through the torn-read-safe epoch path, and every swap closes a
// measurement window recording live TA/ASR, the DeepDyve alarm rate
// over a deterministic replay stream, and simulated service quality.
func ServeUnderFire(v *Victim, off *Offline, hw HardwareConfig, opts ServeOptions) (*ServeTimeline, error) {
	job, sys, err := singleModule(v, off, hw)
	if err != nil {
		return nil, err
	}

	// The serving victim: a fresh clone quantized to the clean
	// deployment, served through the int8 epoch engine.
	engine := quant.NewQModel(quant.NewQuantizer(v.result.Model.Clone()))

	// The DeepDyve checker: a small model trained on the same task with
	// a different seed, served int8 so the whole protocol runs on
	// concurrency-safe engines.
	checkerSeed := v.seed + checkerSeedOffset
	checkerCfg := models.Config{Arch: "resnet20", Classes: v.result.Model.Classes, WidthMult: 0.25, Seed: checkerSeed}
	checkerRes, err := pretrain.TrainCached(pretrain.Config{
		Model:  checkerCfg,
		Data:   v.dcfg,
		Epochs: v.epochs,
		Seed:   checkerSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("rowhammer: training checker: %w", err)
	}
	checker := quant.NewQModel(quant.NewQuantizer(checkerRes.Model.Clone()))

	fire := serve.Fire{
		Engine:  engine,
		Checker: checker,
		Eval:    v.result.Test,
		Trigger: off.Trigger,
		Target:  off.target,
		Serve: serve.Config{
			BatchMax: cmp.Or(opts.BatchMax, 32),
			Workers:  cmp.Or(opts.Workers, 1),
		},
		Cfg: serve.FireConfig{
			Seed:            cmp.Or(opts.Seed, job.Online.MeasureSeed),
			ReplayQueries:   opts.ReplayQueries,
			TriggerFraction: opts.TriggerFraction,
			LiveClients:     opts.LiveClients,
		},
	}

	var onres *core.OnlineResult
	rep, live, err := serve.RunUnderFire(fire, func(apply func(round int, mapped []byte)) error {
		ocfg := job.Online
		ocfg.AfterRound = apply
		var aerr error
		onres, aerr = core.ExecuteOnline(sys, job.WeightFile, job.Reqs, ocfg)
		return aerr
	})
	if err != nil {
		return nil, err
	}

	tl := &ServeTimeline{
		Online:              wrapOnline(onres),
		BaselineAlarmRate:   rep.BaselineAlarmRate,
		Detected:            rep.Detected,
		DetectionWindow:     rep.DetectionWindow,
		DetectionLagQueries: rep.DetectionLagQueries,
		LiveQPS:             live.QPS,
		LiveServed:          live.Served,
		LiveShed:            live.Shed,
		LiveMeanBatch:       live.MeanBatch,
	}
	for _, w := range rep.Windows {
		tl.Windows = append(tl.Windows, ServeWindow{
			Window: w.Window, Round: w.Round,
			FlipsApplied: w.FlipsApplied, EpochSeq: w.EpochSeq,
			TA: w.TA, ASR: w.ASR, AlarmRate: w.AlarmRate,
			SimQPS: w.SimQPS, SimP50Ns: w.SimP50Ns, SimP99Ns: w.SimP99Ns,
			SimShed: w.SimShed,
		})
	}
	return tl, nil
}
