package server

import (
	"fmt"

	"rowhammer/internal/campaign"
	"rowhammer/internal/core"
	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/profile"
)

// FleetSpec is the wire form of one submitted fleet: a named batch of
// campaign jobs plus optional per-fleet engine overrides. It is what
// POST /v1/fleets decodes and what the checkpoint persists, so a spec
// must resolve to the same job list on every load — all resolution is
// pure (name → Table I profile, zero → documented default).
type FleetSpec struct {
	// Name labels the fleet in listings (optional).
	Name string
	// Workers overrides the daemon's per-fleet worker count (0 = daemon
	// default).
	Workers int
	// MaxArenaMB overrides the daemon's in-flight arena cap (0 = daemon
	// default).
	MaxArenaMB int
	// Jobs are the campaigns, one Result each.
	Jobs []JobSpec
}

// JobSpec is the wire form of one campaign.
type JobSpec struct {
	// Name labels the campaign in results (optional).
	Name string
	// WeightFile is the victim's page-aligned weight file (base64 in
	// JSON).
	WeightFile []byte
	// Reqs are the offline phase's per-page flip requirements.
	Reqs []profile.PageRequirement
	// Module is the DRAM identity under attack.
	Module ModuleSpec
	// Online tunes the online engine (zero values pick defaults).
	Online OnlineSpec
}

// ModuleSpec selects the simulated DIMM by name rather than by full
// device profile, so a curl submission stays a one-liner.
type ModuleSpec struct {
	// Device is a Table I chip name ("A1" … "N1"); empty picks the
	// paper's DDR3 module.
	Device string
	// SizeMB is the module capacity (0 = 192).
	SizeMB int
	// Seed keys the weak-cell layout (0 = 7).
	Seed int64
	// FlipFailProb / TRRJitter / FaultSeed configure fault injection
	// (all zero = deterministic module).
	FlipFailProb float64
	TRRJitter    float64
	FaultSeed    int64
}

// OnlineSpec mirrors the serializable knobs of core.OnlineConfig.
type OnlineSpec struct {
	// BufferPages sizes the templating buffer (0 = the engine default
	// for the weight file's size).
	BufferPages int
	// Sides is the hammer pattern width (0 = 2).
	Sides int
	// Intensity is the normalized activation budget (0 = 1).
	Intensity float64
	// MeasureSeed seeds side-channel noise (0 = 7).
	MeasureSeed int64
	// Rounds / Escalation / RetemplatePasses / MaxBufferPages are the
	// robust-engine knobs, passed through verbatim.
	Rounds           int
	Escalation       float64
	RetemplatePasses int
	MaxBufferPages   int
}

// Resolve turns the spec into the engine's job list. Resolution is a
// pure function of the spec — the resume path depends on a reloaded
// spec producing the identical jobs (and therefore identical template
// fingerprints) as the original submission.
func (s FleetSpec) Resolve() ([]campaign.Job, error) {
	if len(s.Jobs) == 0 {
		return nil, fmt.Errorf("fleet has no jobs")
	}
	out := make([]campaign.Job, len(s.Jobs))
	for i, js := range s.Jobs {
		job, err := js.Job(i)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		out[i] = job
	}
	return out, nil
}

// Job resolves one job spec into the engine's terms and validates it.
// This is the one path from a module and online description to a
// campaign.Job: campaignd's fleets and the public HammerOnline,
// ServeUnderFire and RunFleet front ends all come through it. Device
// names map to Table I profiles (empty = the paper's DDR3 module) and
// every zero knob takes its documented default: 192 MB, module seed 7,
// measure seed 7, fault seed 1 once any fault knob is set, and
// core.DefaultOnlineConfig for the rest. An unnamed job is called
// "<device>-<index>". Resolution is pure.
func (js JobSpec) Job(index int) (campaign.Job, error) {
	dev := dram.PaperDDR3()
	if js.Module.Device != "" {
		p, ok := dram.ProfileByName(js.Module.Device)
		if !ok {
			return campaign.Job{}, fmt.Errorf("unknown device %q", js.Module.Device)
		}
		dev = p
	}
	name := js.Name
	if name == "" {
		name = fmt.Sprintf("%s-%d", dev.Name, index)
	}
	// A NaN or negative knob leaves the model non-zero, so Validate sees
	// and rejects it.
	fault := dram.FaultModel{FlipFailProb: js.Module.FlipFailProb, TRRJitter: js.Module.TRRJitter}
	if fault != (dram.FaultModel{}) {
		fault.Seed = or(js.Module.FaultSeed, 1)
	}
	on := js.Online
	ocfg := core.DefaultOnlineConfig(len(js.WeightFile) / memsys.PageSize)
	ocfg.BufferPages = or(on.BufferPages, ocfg.BufferPages)
	ocfg.Sides = or(on.Sides, ocfg.Sides)
	ocfg.Intensity = or(on.Intensity, ocfg.Intensity)
	ocfg.MeasureSeed = or(on.MeasureSeed, 7)
	ocfg.Rounds = on.Rounds
	ocfg.Escalation = on.Escalation
	ocfg.RetemplatePasses = on.RetemplatePasses
	ocfg.MaxBufferPages = on.MaxBufferPages

	job := campaign.Job{
		Name:       name,
		WeightFile: js.WeightFile,
		Reqs:       js.Reqs,
		Module: campaign.ModuleSpec{
			Device:    dev,
			SizeBytes: or(js.Module.SizeMB, 192) << 20,
			Seed:      or(js.Module.Seed, 7),
			Fault:     fault,
		},
		Online: ocfg,
	}
	return job, job.Validate()
}

// or returns v, or def when v is the zero value.
func or[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

// FleetStatus is the wire form of GET /v1/fleets/{id}.
type FleetStatus struct {
	ID   string
	Name string
	// State is "queued", "running" or "done".
	State string
	// Campaigns / Completed / Failed / CacheHits count the fleet's
	// campaigns and how they went so far.
	Campaigns int
	Completed int
	Failed    int
	CacheHits int
	// Digest is the canonical result digest, set once the fleet is done:
	// sha256 over the scrubbed per-campaign results in index order. Two
	// runs of the same fleet — interrupted or not — produce equal
	// digests; that is the checkpoint/resume determinism contract.
	Digest string `json:",omitempty"`
	// SKUs aggregates per stock-keeping unit (set once done).
	SKUs []campaign.SKUStats `json:",omitempty"`
}

// DemoFleet builds a small self-contained two-SKU fleet over synthetic
// weight files — the `campaignd -demo` smoke workload and a template
// for hand-written submissions. campaignsPerSKU ≤ 0 picks 3.
func DemoFleet(campaignsPerSKU int) FleetSpec {
	if campaignsPerSKU <= 0 {
		campaignsPerSKU = 3
	}
	spec := FleetSpec{Name: "demo"}
	skus := []struct {
		device  string
		sizeMB  int
		seed    int64
		online  OnlineSpec
		ffail   float64
		faultSd int64
	}{
		{device: "F1", sizeMB: 16, seed: 77,
			online: OnlineSpec{BufferPages: 1024, Sides: 2, Intensity: 1, MeasureSeed: 7}},
		{device: "K1", sizeMB: 24, seed: 78, ffail: 0.2, faultSd: 5,
			online: OnlineSpec{BufferPages: 2048, Sides: 7, Intensity: 1, MeasureSeed: 7,
				Rounds: 3, Escalation: 2}},
	}
	n := 0
	for _, sku := range skus {
		for c := 0; c < campaignsPerSKU; c++ {
			file, reqs := profile.SyntheticWorkload(128, int64(100+n))
			spec.Jobs = append(spec.Jobs, JobSpec{
				Name:       fmt.Sprintf("demo-%s-%d", sku.device, c),
				WeightFile: file,
				Reqs:       reqs,
				Module: ModuleSpec{
					Device: sku.device, SizeMB: sku.sizeMB, Seed: sku.seed,
					FlipFailProb: sku.ffail, FaultSeed: sku.faultSd,
				},
				Online: sku.online,
			})
			n++
		}
	}
	return spec
}
