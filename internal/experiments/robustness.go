package experiments

import (
	"rowhammer/internal/core"
	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/profile"
)

// RobustnessRow is one (flip-failure rate, round budget) cell of the
// retry-engine sweep: how much of the required corruption the online
// engine realizes on a module whose weak cells fire unreliably.
type RobustnessRow struct {
	// FlipFailProb is the injected per-pass flip failure probability.
	FlipFailProb float64
	// Rounds is the verify/re-hammer round budget (1 = single shot).
	Rounds int
	// RoundsUsed is how many rounds the engine actually needed.
	RoundsUsed int
	// NMatch / NRequired count required flips fired vs wanted.
	NMatch    int
	NRequired int
	// Retemplates counts adaptive re-templating passes taken.
	Retemplates int
	// RMatch is the resulting DRAM match rate (percent).
	RMatch float64
}

// Robustness sweeps the robust online engine across flip-failure rates
// and round budgets on the paper-scale templating buffer. Budgets > 1
// also enable budget-doubling escalation and two adaptive re-templating
// passes (the RobustOnlineConfig recipe); budget 1 is the plain
// single-shot engine, so each row pair reads as "what the retry
// machinery buys at this failure rate".
func Robustness(s Scale, failRates []float64, budgets []int) ([]RobustnessRow, error) {
	if failRates == nil {
		failRates = []float64{0, 0.3, 0.5, 0.7}
	}
	if budgets == nil {
		budgets = []int{1, 5}
	}
	const filePages = 256
	file, reqs := profile.SyntheticWorkload(filePages, s.Seed)

	var rows []RobustnessRow
	for _, fail := range failRates {
		for _, rounds := range budgets {
			mod, err := dram.NewModuleForSize(s.ModuleMB<<20, dram.PaperDDR3(), 77)
			if err != nil {
				return nil, err
			}
			sys := memsys.NewSystem(mod)
			if fail > 0 {
				sys.InjectFaults(dram.FaultModel{FlipFailProb: fail, Seed: 9})
			}
			cfg := core.DefaultOnlineConfig(filePages)
			cfg.MeasureSeed = s.Seed
			if rounds > 1 {
				cfg.Rounds = rounds
				cfg.Escalation = 2
				cfg.RetemplatePasses = 2
			}
			res, err := core.ExecuteOnline(sys, file, reqs, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, RobustnessRow{
				FlipFailProb: fail,
				Rounds:       rounds,
				RoundsUsed:   res.Report.RoundsExecuted(),
				NMatch:       res.NMatch,
				NRequired:    res.NRequired,
				Retemplates:  len(res.Report.Retemplates),
				RMatch:       res.RMatch,
			})
		}
	}
	return rows, nil
}
