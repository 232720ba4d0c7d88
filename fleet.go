package rowhammer

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"

	"rowhammer/internal/campaign"
	"rowhammer/internal/campaign/server"
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

// FleetServiceConfig configures an embedded campaignd daemon core — the
// long-running orchestration service behind cmd/campaignd.
type FleetServiceConfig struct {
	// Dir is the durable state root (required). Fleets submitted to the
	// service are checkpointed under it: a process killed mid-fleet
	// resumes on the next StartFleetService over the same directory and
	// finishes with byte-identical results.
	Dir string
	// Workers bounds concurrently executing campaigns per fleet (0 = 1).
	Workers int
	// MaxArenaMB caps estimated in-flight DRAM simulation state per
	// fleet (0 = uncapped).
	MaxArenaMB int
	// CacheEntries bounds the cross-fleet profile cache (0 = unbounded).
	CacheEntries int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// FleetService is a running campaignd core: a durable fleet queue over
// the campaign engine with an HTTP/JSON surface. Mount Handler on any
// http.Server (cmd/campaignd is exactly that plus flags), or drive it
// in-process via SubmitJSON/FleetDone.
type FleetService struct {
	inner *server.Server
}

// StartFleetService opens cfg.Dir, resumes any fleet a previous process
// left unfinished, and starts the service.
func StartFleetService(cfg FleetServiceConfig) (*FleetService, error) {
	s, err := server.New(server.Config{
		Dir:          cfg.Dir,
		Workers:      cfg.Workers,
		MaxArenaMB:   cfg.MaxArenaMB,
		CacheEntries: cfg.CacheEntries,
		Logf:         cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	return &FleetService{inner: s}, nil
}

// Handler returns the HTTP API: POST /v1/fleets, GET /v1/fleets,
// GET /v1/fleets/{id}[/stream|/results], GET /v1/skus. See the
// cmd/campaignd documentation for the wire schema and curl examples.
func (s *FleetService) Handler() http.Handler { return s.inner.Handler() }

// SubmitJSON submits a fleet spec (the POST /v1/fleets body) and
// returns its id once the submission is durably checkpointed.
func (s *FleetService) SubmitJSON(spec []byte) (string, error) {
	var fs server.FleetSpec
	if err := json.Unmarshal(spec, &fs); err != nil {
		return "", fmt.Errorf("rowhammer: fleet spec: %w", err)
	}
	return s.inner.Submit(fs)
}

// FleetDone returns a channel closed when the fleet finishes.
func (s *FleetService) FleetDone(id string) (<-chan struct{}, bool) {
	return s.inner.FleetDone(id)
}

// Close stops the service. An in-flight fleet stops at its next stage
// boundary with completed campaigns checkpointed; it resumes on the
// next StartFleetService.
func (s *FleetService) Close() error { return s.inner.Close() }
