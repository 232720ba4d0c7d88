package experiments

import (
	"sort"

	"rowhammer/internal/baselines"
	"rowhammer/internal/core"
	"rowhammer/internal/metrics"
	"rowhammer/internal/quant"
)

// Table3Row reports CFT+BR against a VGG architecture (Table III).
type Table3Row struct {
	Arch    string
	BaseAcc float64
	TA      float64
	ASR     float64
	NFlip   int
}

// Table3 runs CFT+BR on the VGG architectures.
func Table3(s Scale, archs []string) ([]Table3Row, error) {
	if len(archs) == 0 {
		archs = []string{"vgg11", "vgg16"}
	}
	var rows []Table3Row
	for _, arch := range archs {
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
		rows = append(rows, Table3Row{
			Arch:    arch,
			BaseAcc: res.Accuracy,
			TA:      metrics.TestAccuracy(model, res.Test),
			ASR:     metrics.AttackSuccessRate(model, res.Test, out.Trigger, s.TargetClass),
			NFlip:   out.NFlip,
		})
	}
	return rows, nil
}

// Table4Row is one restoration level of the Table IV / Appendix D
// experiment: BadNet's backdoor evaporates as its least important
// modifications are restored.
type Table4Row struct {
	// ModificationPercent is the share of modified parameters kept.
	ModificationPercent int
	TA                  float64
	ASR                 float64
}

// Table4 fine-tunes BadNet without constraints and then restores
// growing fractions of the modified parameters (smallest |change|
// first), re-measuring TA and ASR at each level.
func Table4(s Scale, arch string) ([]Table4Row, error) {
	if arch == "" {
		arch = "resnet20"
	}
	res, err := victim(arch, s)
	if err != nil {
		return nil, err
	}
	model := res.Model.Clone()
	cfg := baselines.DefaultConfig(s.TargetClass)
	cfg.Iterations = s.BaselineIterations
	cfg.LR = s.BaselineLR / 5
	out, err := baselines.BadNet(model, res.Test.Head(s.AttackImages), cfg)
	if err != nil {
		return nil, err
	}

	// Rank modified weights by |code change| ascending (the proxy for
	// "lowest gradient value": the optimizer moved them least).
	type modw struct {
		idx   int
		delta int
	}
	var mods []modw
	for i := range out.OrigCodes {
		if out.OrigCodes[i] != out.BackdooredCodes[i] {
			d := int(out.BackdooredCodes[i]) - int(out.OrigCodes[i])
			if d < 0 {
				d = -d
			}
			mods = append(mods, modw{idx: i, delta: d})
		}
	}
	sort.Slice(mods, func(a, b int) bool { return mods[a].delta < mods[b].delta })

	levels := []int{100, 99, 90, 80, 70, 50}
	var rows []Table4Row
	q := out.Quantizer
	for _, keep := range levels {
		// Restore the smallest (100−keep)% of modifications.
		codes := append([]int8(nil), out.BackdooredCodes...)
		restore := len(mods) * (100 - keep) / 100
		for i := 0; i < restore; i++ {
			codes[mods[i].idx] = out.OrigCodes[mods[i].idx]
		}
		q.LoadCodes(codes)
		rows = append(rows, Table4Row{
			ModificationPercent: keep,
			TA:                  metrics.TestAccuracy(model, res.Test),
			ASR:                 metrics.AttackSuccessRate(model, res.Test, out.Trigger, s.TargetClass),
		})
	}
	return rows, nil
}
