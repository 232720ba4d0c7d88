package experiments

import (
	"rowhammer/internal/core"
	"rowhammer/internal/defense"
	"rowhammer/internal/metrics"
	"rowhammer/internal/quant"
)

// Figure7Report is the CFT+BR training-loss curve with the iterations
// at which Bit Reduction fired (where the paper's Figure 7 shows
// spikes).
type Figure7Report struct {
	Loss           []float32
	BitReduceIters []int
	// SpikeRatio is the mean ratio of the loss right after a Bit
	// Reduction to the loss right before it (>1 means visible spikes).
	SpikeRatio float64
}

// Figure7 runs CFT+BR and extracts the loss trajectory.
func Figure7(s Scale, arch string) (*Figure7Report, error) {
	if arch == "" {
		arch = "resnet20"
	}
	res, err := victim(arch, s)
	if err != nil {
		return nil, err
	}
	model := res.Model.Clone()
	q := quant.NewQuantizer(model)
	cfg := attackConfig(s, defaultNFlip(q.NumPages()), true)
	out, err := core.RunOffline(model, res.Test.Head(s.AttackImages), cfg)
	if err != nil {
		return nil, err
	}
	rep := &Figure7Report{Loss: out.LossHistory}
	var ratios []float64
	for t := cfg.BitReduceEvery; t < len(out.LossHistory); t += cfg.BitReduceEvery {
		rep.BitReduceIters = append(rep.BitReduceIters, t)
		before := float64(out.LossHistory[t-1])
		after := float64(out.LossHistory[t])
		if before > 0 {
			ratios = append(ratios, after/before)
		}
	}
	for _, r := range ratios {
		rep.SpikeRatio += r
	}
	if len(ratios) > 0 {
		rep.SpikeRatio /= float64(len(ratios))
	}
	return rep, nil
}

// Figure8Report quantifies the saliency focus shift of Figure 8.
type Figure8Report struct {
	defense.SentiNetReport
	// OfflineASR confirms the backdoor is active in the compared model.
	OfflineASR float64
}

// Figure8 compares the clean and backdoored models' attention on
// triggered inputs.
func Figure8(s Scale, arch string, samples int) (*Figure8Report, error) {
	if arch == "" {
		arch = "resnet20"
	}
	res, err := victim(arch, s)
	if err != nil {
		return nil, err
	}
	clean := res.Model.Clone()
	backdoored := res.Model.Clone()
	q := quant.NewQuantizer(backdoored)
	cfg := attackConfig(s, defaultNFlip(q.NumPages()), true)
	out, err := core.RunOffline(backdoored, res.Test.Head(s.AttackImages), cfg)
	if err != nil {
		return nil, err
	}
	// ASR is measured before tap installation mutates the graphs.
	offASR := metrics.AttackSuccessRate(backdoored, res.Test, out.Trigger, s.TargetClass)
	cam, err := defense.EvaluateGradCAM(clean, backdoored, res.Test, out.Trigger, s.TargetClass, samples)
	if err != nil {
		return nil, err
	}
	return &Figure8Report{SentiNetReport: cam, OfflineASR: offASR}, nil
}

// Figure13Report contrasts where CFT+BR and TBT place their bit flips
// in the weight file (Figure 13): CFT+BR spreads across pages, TBT
// clusters in the last layer's page.
type Figure13Report struct {
	TotalPages   int
	CFTBRPages   []int
	TBTPages     []int
	CFTBRSpread  float64 // distinct pages / flips (1.0 = perfectly spread)
	TBTSpread    float64
	CFTBRMaxHits int // most flips in any single page
	TBTMaxHits   int
}

// Figure13 runs both attacks on the same victim and maps their flip
// locations.
func Figure13(s Scale, arch string) (*Figure13Report, error) {
	if arch == "" {
		arch = "resnet20"
	}
	res, err := victim(arch, s)
	if err != nil {
		return nil, err
	}

	cftbr, err := runMethod(MethodCFTBR, res, s)
	if err != nil {
		return nil, err
	}
	tbt, err := runMethod(MethodTBT, res, s)
	if err != nil {
		return nil, err
	}

	pagesOf := func(orig, codes []int8) (pages []int, spread float64, maxHits int) {
		hits := map[int]int{}
		flips := 0
		for _, d := range quant.DiffBitsOf(orig, codes) {
			hits[quant.PageOf(d.Weight)]++
			flips++
		}
		for p, c := range hits {
			pages = append(pages, p)
			if c > maxHits {
				maxHits = c
			}
		}
		if flips > 0 {
			spread = float64(len(hits)) / float64(flips)
		}
		return pages, spread, maxHits
	}

	rep := &Figure13Report{TotalPages: cftbr.Quantizer.NumPages()}
	rep.CFTBRPages, rep.CFTBRSpread, rep.CFTBRMaxHits = pagesOf(cftbr.OrigCodes, cftbr.BackdooredCodes)
	rep.TBTPages, rep.TBTSpread, rep.TBTMaxHits = pagesOf(tbt.OrigCodes, tbt.BackdooredCodes)
	return rep, nil
}
