package rowhammer

import (
	"cmp"
	"fmt"

	"rowhammer/internal/campaign"
)

// FleetModule is one deployment in a fleet sweep: a simulated DRAM
// system to run the online attack against.
type FleetModule struct {
	// Name labels the campaign in reports; empty picks the device name.
	Name string
	// Hardware selects the module and online configuration, exactly as
	// HammerOnline interprets it.
	Hardware HardwareConfig
}

// FleetConfig controls the fleet campaign engine.
type FleetConfig struct {
	// Workers bounds concurrently executing campaigns (0 = 1).
	Workers int
	// MaxArenaMB caps the estimated in-flight DRAM simulation state; 0
	// removes the cap.
	MaxArenaMB int
	// OnReport, when set, streams each campaign's report as it
	// finishes (completion order). Calls are serialized.
	OnReport func(FleetReport)
}

// FleetReport is one campaign's outcome within a fleet.
type FleetReport struct {
	// Index is the campaign's position in the submitted module list.
	Index int
	// Name labels the campaign.
	Name string
	// SKU is the module's device/capacity class.
	SKU string
	// CacheHit reports whether the campaign reused another campaign's
	// flip template instead of re-templating (identical hardware
	// identity). Deterministic: derived from submission order.
	CacheHit bool
	// Online is the attack outcome (nil when Err is set); pass it to
	// Evaluate to measure the deployed backdoor on this module.
	Online *Online
	// Err is this campaign's failure; other campaigns are unaffected.
	Err error
}

// FleetSummary aggregates a fleet sweep.
type FleetSummary struct {
	// Reports holds every campaign in submission order.
	Reports []FleetReport
	// Failed counts campaigns with Err set.
	Failed int
	// CacheHits counts campaigns that reused a cached template.
	CacheHits int
	// MeanRMatch averages r_match over the successful campaigns.
	MeanRMatch float64
}

// RunFleet attacks every module with the same offline product — the
// fleet scenario of a weight file deployed across many machines. The
// campaigns run concurrently on cfg.Workers slots with the
// offline/template/plan/online stages pipelined across campaigns;
// modules with identical hardware identity share one flip template
// through the cross-campaign profile cache. Each campaign's result is
// byte-identical to a standalone HammerOnline run with the same
// HardwareConfig when no fault model is set, and identical at any
// worker count and cache state always.
func RunFleet(v *Victim, off *Offline, modules []FleetModule, cfg FleetConfig) (*FleetSummary, error) {
	if len(modules) == 0 {
		return nil, fmt.Errorf("rowhammer: fleet has no modules")
	}
	file, reqs, err := attackInputs(v, off)
	if err != nil {
		return nil, err
	}
	jobs := make([]campaign.Job, len(modules))
	for i, m := range modules {
		job, err := m.Hardware.spec(file, reqs).Job(i)
		if err != nil {
			return nil, fmt.Errorf("rowhammer: fleet module %d: %w", i, err)
		}
		// An unnamed campaign is labeled by its device alone.
		job.Name = cmp.Or(m.Name, job.Module.Device.Name)
		jobs[i] = job
	}

	ccfg := campaign.Config{
		Workers:       cfg.Workers,
		MaxArenaBytes: int64(cfg.MaxArenaMB) << 20,
	}
	if cfg.OnReport != nil {
		ccfg.OnResult = func(r campaign.Result) { cfg.OnReport(toFleetReport(r)) }
	}
	sum := campaign.Run(jobs, ccfg)

	out := &FleetSummary{
		Reports:   make([]FleetReport, len(sum.Results)),
		Failed:    sum.Failed,
		CacheHits: sum.CacheHits,
	}
	rsum, n := 0.0, 0
	for i, r := range sum.Results {
		out.Reports[i] = toFleetReport(r)
		if r.Err == nil {
			rsum += r.Online.RMatch
			n++
		}
	}
	if n > 0 {
		out.MeanRMatch = rsum / float64(n)
	}
	return out, nil
}

func toFleetReport(r campaign.Result) FleetReport {
	fr := FleetReport{
		Index:    r.Index,
		Name:     r.Name,
		SKU:      r.SKU,
		CacheHit: r.CacheHit,
		Err:      r.Err,
	}
	if r.Online != nil {
		fr.Online = wrapOnline(r.Online)
	}
	return fr
}
