package experiments

import (
	"time"

	"rowhammer/internal/core"
	"rowhammer/internal/defense"
	"rowhammer/internal/metrics"
	"rowhammer/internal/models"
	"rowhammer/internal/nn"
	"rowhammer/internal/quant"
	"rowhammer/internal/voltsim"
)

// BinarizationReport is the §VI-A binarization-aware-training result:
// the flip budget collapses with the page count and the attack fails.
type BinarizationReport struct {
	Info        defense.BinarizationInfo
	BaseAcc     float64 // binarized model's clean accuracy
	FullAcc     float64 // full-precision model's clean accuracy
	AttackTA    float64
	AttackASR   float64
	NFlipBudget int
}

// DefenseBinarization attacks a binarization-aware ResNet-32 with the
// shrunken flip budget.
func DefenseBinarization(s Scale) (*BinarizationReport, error) {
	// Train the binarized victim.
	binRes, err := victim("bin-resnet32", s)
	if err != nil {
		return nil, err
	}
	fullRes, err := victim("resnet32", s)
	if err != nil {
		return nil, err
	}
	model := binRes.Model.Clone()
	binParams := defense.CountBinarizableParams(model.Root, func(l nn.Layer) (int, bool) {
		if bc, ok := l.(*models.BinConv2D); ok {
			return bc.Params()[0].W.Len(), true
		}
		return 0, false
	})
	info := defense.AnalyzeBinarization(model, binParams)

	// The attacker's budget on a binarized deployment is the binarized
	// page count.
	q := quant.NewQuantizer(model)
	budget := info.MaxNFlip
	if budget > q.NumPages() {
		budget = q.NumPages()
	}
	if budget < 1 {
		budget = 1
	}
	cfg := attackConfig(s, budget, true)
	out, err := core.RunOffline(model, binRes.Test.Head(s.AttackImages), cfg)
	if err != nil {
		return nil, err
	}
	return &BinarizationReport{
		Info:        info,
		BaseAcc:     binRes.Accuracy,
		FullAcc:     fullRes.Accuracy,
		AttackTA:    metrics.TestAccuracy(model, binRes.Test),
		AttackASR:   metrics.AttackSuccessRate(model, binRes.Test, out.Trigger, s.TargetClass),
		NFlipBudget: budget,
	}, nil
}

// PWCReport is the §VI-A piecewise-weight-clustering result.
type PWCReport struct {
	ClusterBefore float64
	ClusterAfter  float64
	CleanTA       float64
	AttackTA      float64
	AttackASR     float64
}

// DefensePWC fine-tunes the victim with the PWC penalty and re-runs the
// attack against the clustered model.
func DefensePWC(s Scale, arch string) (*PWCReport, error) {
	if arch == "" {
		arch = "resnet32"
	}
	res, err := victim(arch, s)
	if err != nil {
		return nil, err
	}
	model := res.Model.Clone()
	rep := &PWCReport{ClusterBefore: defense.ClusteringScore(model)}
	pwcCfg := defense.DefaultPWCConfig()
	pwcCfg.Iterations = s.Epochs * 10
	defense.PWCFineTune(model, res.Train, pwcCfg)
	rep.ClusterAfter = defense.ClusteringScore(model)
	rep.CleanTA = metrics.TestAccuracy(model, res.Test)

	q := quant.NewQuantizer(model)
	cfg := attackConfig(s, defaultNFlip(q.NumPages()), true)
	out, err := core.RunOffline(model, res.Test.Head(s.AttackImages), cfg)
	if err != nil {
		return nil, err
	}
	rep.AttackTA = metrics.TestAccuracy(model, res.Test)
	rep.AttackASR = metrics.AttackSuccessRate(model, res.Test, out.Trigger, s.TargetClass)
	return rep, nil
}

// DeepDyveExperimentReport is the §VI-B DeepDyve result.
type DeepDyveExperimentReport struct {
	defense.DeepDyveReport
	OfflineASR float64
}

// DefenseDeepDyve backdoors the main model and runs the checker
// protocol: persistent flips survive the re-query.
func DefenseDeepDyve(s Scale, arch string) (*DeepDyveExperimentReport, error) {
	if arch == "" {
		arch = "resnet20"
	}
	res, err := victim(arch, s)
	if err != nil {
		return nil, err
	}
	backdoored := res.Model.Clone()
	q := quant.NewQuantizer(backdoored)
	cfg := attackConfig(s, defaultNFlip(q.NumPages()), true)
	out, err := core.RunOffline(backdoored, res.Test.Head(s.AttackImages), cfg)
	if err != nil {
		return nil, err
	}
	// Checker: a smaller clean model trained on the same task.
	checkerScale := s
	checkerScale.Seed++
	checkerRes, err := victim(arch, checkerScale)
	if err != nil {
		return nil, err
	}
	dd := &defense.DeepDyve{Main: backdoored, Checker: checkerRes.Model}
	rep := &DeepDyveExperimentReport{
		DeepDyveReport: defense.EvaluateDeepDyve(dd, res.Test, out.Trigger, s.TargetClass),
		OfflineASR:     metrics.AttackSuccessRate(backdoored, res.Test, out.Trigger, s.TargetClass),
	}
	return rep, nil
}

// EncodingReport is the §VI-B weight-encoding overhead analysis.
type EncodingReport struct {
	Detected           bool
	MeasuredVerify     time.Duration
	MeasuredWeights    int
	ExtrapolatedVerify time.Duration // for a ResNet-34 sized model
	StorageRatio       float64
}

// DefenseEncoding measures the detector on a real corrupted weight file
// and extrapolates the paper's ResNet-34 overhead estimate.
func DefenseEncoding(s Scale, arch string) (*EncodingReport, error) {
	if arch == "" {
		arch = "resnet20"
	}
	res, err := victim(arch, s)
	if err != nil {
		return nil, err
	}
	model := res.Model.Clone()
	q := quant.NewQuantizer(model)
	codes := q.Codes()

	// Signature length scales with weight count in the original scheme;
	// use m = n/64 to keep the measurement tractable.
	m := len(codes) / 64
	if m < 8 {
		m = 8
	}
	enc := defense.NewWeightEncoder(len(codes), m, s.Seed)
	enc.Encode(codes)

	cfg := attackConfig(s, defaultNFlip(q.NumPages()), true)
	out, err := core.RunOffline(model, res.Test.Head(s.AttackImages), cfg)
	if err != nil {
		return nil, err
	}
	ok, elapsed := enc.Verify(out.BackdooredCodes)

	// Extrapolate to the ResNet-34 scale the paper uses (21.8M params).
	perMAC := time.Duration(int64(elapsed) / int64(len(codes)*m))
	if perMAC <= 0 {
		perMAC = time.Nanosecond
	}
	const resnet34Params = 21_779_648
	exVerify, storage := defense.EstimateEncodingOverhead(resnet34Params, resnet34Params/64, perMAC)
	return &EncodingReport{
		Detected:           !ok,
		MeasuredVerify:     elapsed,
		MeasuredWeights:    len(codes),
		ExtrapolatedVerify: exVerify,
		StorageRatio:       storage,
	}, nil
}

// RADARReport is the §VI-B RADAR result: the standard attack is
// detected, the MSB-avoiding adaptive attack is not.
type RADARReport struct {
	StandardDetected bool
	AdaptiveDetected bool
	AdaptiveASR      float64
	AdaptiveTA       float64
	ScanTime         time.Duration
}

// DefenseRADAR runs both attacker variants against an MSB-checksum
// RADAR.
func DefenseRADAR(s Scale, arch string) (*RADARReport, error) {
	if arch == "" {
		arch = "resnet20"
	}
	res, err := victim(arch, s)
	if err != nil {
		return nil, err
	}

	run := func(forbidden byte) (*core.Result, *quant.Quantizer, error) {
		model := res.Model.Clone()
		q := quant.NewQuantizer(model)
		cfg := attackConfig(s, defaultNFlip(q.NumPages()), true)
		cfg.ForbiddenBitMask = forbidden
		out, err := core.RunOffline(model, res.Test.Head(s.AttackImages), cfg)
		return out, q, err
	}

	standard, _, err := run(0)
	if err != nil {
		return nil, err
	}
	adaptive, qa, err := run(0x80)
	if err != nil {
		return nil, err
	}

	r := defense.NewRADAR(512, 0x80)
	r.Snapshot(standard.OrigCodes)
	stdBad, scan := r.Check(standard.BackdooredCodes)
	adBad, _ := r.Check(adaptive.BackdooredCodes)

	adModel := qa.Model()
	return &RADARReport{
		StandardDetected: len(stdBad) > 0,
		AdaptiveDetected: len(adBad) > 0,
		AdaptiveASR:      metrics.AttackSuccessRate(adModel, res.Test, adaptive.Trigger, s.TargetClass),
		AdaptiveTA:       metrics.TestAccuracy(adModel, res.Test),
		ScanTime:         scan,
	}, nil
}

// ReconstructionReport is the §VI-C weight-reconstruction result.
type ReconstructionReport struct {
	// Unaware attacker: offline metrics, then after reconstruction.
	UnawareASR      float64
	UnawareTA       float64
	AfterReconASR   float64
	AfterReconTA    float64
	AdaptiveASR     float64 // defense-aware attacker, after reconstruction
	AdaptiveTA      float64
	NFlipUnaware    int
	NFlipAdaptive   int
	ReconGroupWords int
}

// DefenseReconstruction runs the two scenarios of §VI-C: an attacker
// unaware of the weight-reconstruction recovery, and one optimizing its
// flips under the recovery transform.
func DefenseReconstruction(s Scale, arch string) (*ReconstructionReport, error) {
	if arch == "" {
		arch = "resnet32"
	}
	res, err := victim(arch, s)
	if err != nil {
		return nil, err
	}
	rep := &ReconstructionReport{ReconGroupWords: 64}

	// Scenario 1: unaware attacker.
	m1 := res.Model.Clone()
	rec1 := defense.NewReconstructor(m1, rep.ReconGroupWords)
	q1 := quant.NewQuantizer(m1)
	cfg := attackConfig(s, defaultNFlip(q1.NumPages()), true)
	out1, err := core.RunOffline(m1, res.Test.Head(s.AttackImages), cfg)
	if err != nil {
		return nil, err
	}
	rep.NFlipUnaware = out1.NFlip
	rep.UnawareTA = metrics.TestAccuracy(m1, res.Test)
	rep.UnawareASR = metrics.AttackSuccessRate(m1, res.Test, out1.Trigger, s.TargetClass)
	undo := rec1.Apply(m1)
	rep.AfterReconTA = metrics.TestAccuracy(m1, res.Test)
	rep.AfterReconASR = metrics.AttackSuccessRate(m1, res.Test, out1.Trigger, s.TargetClass)
	undo()

	// Scenario 2: defense-aware attacker optimizes under reconstruction.
	m2 := res.Model.Clone()
	rec2 := defense.NewReconstructor(m2, rep.ReconGroupWords)
	q2 := quant.NewQuantizer(m2)
	cfg2 := attackConfig(s, defaultNFlip(q2.NumPages()), true)
	cfg2.WrapLoss = rec2.WrapLossWith(m2)
	out2, err := core.RunOffline(m2, res.Test.Head(s.AttackImages), cfg2)
	if err != nil {
		return nil, err
	}
	rep.NFlipAdaptive = out2.NFlip
	undo2 := rec2.Apply(m2)
	rep.AdaptiveTA = metrics.TestAccuracy(m2, res.Test)
	rep.AdaptiveASR = metrics.AttackSuccessRate(m2, res.Test, out2.Trigger, s.TargetClass)
	undo2()
	return rep, nil
}

// PlundervoltReport is the Appendix F negative result.
type PlundervoltReport struct {
	PoCLoopFaults      int
	QuantizedMACFaults int
	SafeOperandFaults  int
}

// Plundervolt reproduces the appendix: the PoC loop faults, quantized
// inference never does.
func Plundervolt(seed int64) *PlundervoltReport {
	cpu := voltsim.NewCPU(250, seed)
	rep := &PlundervoltReport{
		PoCLoopFaults:     cpu.LoopMultiply(3, 0x20_0000, 50_000),
		SafeOperandFaults: cpu.LoopMultiply(3, 0xFFFF, 50_000),
	}
	weights := make([]int8, 512)
	acts := make([]int8, 512)
	for i := range weights {
		weights[i] = int8(i%255 - 127)
		acts[i] = int8(127 - i%255)
	}
	rep.QuantizedMACFaults = voltsim.QuantizedMACSweep(cpu, weights, acts)
	return rep
}
