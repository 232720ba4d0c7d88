package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"rowhammer/internal/campaign"
	"rowhammer/internal/core"
	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/profile"
)

// The fleet workload sweeps campaign.Run over a fixed mix of module
// identities. Every campaign attacks one seeded weight file at paper
// scale: ResNet-20 at full width is about 270k int8 weights, 66 pages.
// The online layers see only bytes and page requirements, so the file is
// synthetic; training a victim would add set-up time without changing
// their work.
const (
	fleetFilePages   = 66
	fleetGroupPages  = 7 // CFT+BR density: one single-bit flip per 7 pages
	fleetArenaCap    = 256 << 20
	fleetFlipFail    = 0.3
	fleetMinSweeps   = 2 // scrubbed results are compared across sweeps
	fleetMeasureSeed = 7
)

// fleetIdentity is one module identity and how many campaigns hit it.
// The first campaign of an identity templates it cold; the rest reuse
// the template from the cache.
type fleetIdentity struct {
	device    string
	sizeMB    int
	sides     int
	faulty    bool // flip-fail fault model plus core.RobustOnlineConfig
	campaigns int
}

// fleetMix mixes DDR3 double-sided and DDR4 7-sided Table I devices at
// 192-256 MB. The faulty identity is a sparse DDR3 device under a
// flip-fail fault model, so retries and re-templating both run.
var fleetMix = []fleetIdentity{
	{"A1", 192, 2, false, 8},
	{"E1", 256, 2, false, 8},
	{"L2", 192, 7, false, 6},
	{"K1", 256, 7, false, 6},
	{"A2", 192, 2, true, 4},
}

// fleetJobs builds the seeded campaign list: one weight file and a
// fresh CFT+BR-shaped requirement set per campaign. Module and fault
// seeds are fixed per identity, like the hardware itself, and the jobs
// take the identities in turn, so the templating work and the order in
// which campaigns wait on cold templates are the same at every seed. The
// first job is also the set-up's warm-up job.
func fleetJobs(seed int64) ([]campaign.Job, error) {
	rng := rand.New(rand.NewSource(seed))
	file := make([]byte, fleetFilePages*memsys.PageSize)
	rng.Read(file)

	var jobs []campaign.Job
	for c := 0; len(jobs) < fleetCampaigns(); c++ {
		for idx, id := range fleetMix {
			if c >= id.campaigns {
				continue
			}
			dev, ok := dram.ProfileByName(id.device)
			if !ok {
				return nil, fmt.Errorf("unknown device %q", id.device)
			}
			spec := campaign.ModuleSpec{Device: dev, SizeBytes: id.sizeMB << 20, Seed: int64(101 + idx)}
			online := core.DefaultOnlineConfig(fleetFilePages)
			if id.faulty {
				online = core.RobustOnlineConfig(fleetFilePages)
				spec.Fault = dram.FaultModel{FlipFailProb: fleetFlipFail, Seed: int64(201 + idx)}
			}
			online.Sides = id.sides
			online.MeasureSeed = fleetMeasureSeed
			jobs = append(jobs, campaign.Job{
				Name:       fmt.Sprintf("%s-%dMB-id%d-c%d", id.device, id.sizeMB, idx, c),
				WeightFile: file,
				Reqs:       fleetRequirements(file, rng),
				Module:     spec,
				Online:     online,
			})
		}
	}
	return jobs, nil
}

func fleetCampaigns() int {
	n := 0
	for _, id := range fleetMix {
		n += id.campaigns
	}
	return n
}

// fleetRequirements draws one single-bit flip in one page of every
// group of fleetGroupPages pages, in the direction the file's bit
// allows.
func fleetRequirements(file []byte, rng *rand.Rand) []profile.PageRequirement {
	var reqs []profile.PageRequirement
	for lo := 0; lo < fleetFilePages; lo += fleetGroupPages {
		n := fleetGroupPages
		if lo+n > fleetFilePages {
			n = fleetFilePages - lo
		}
		page := lo + rng.Intn(n)
		off, bit := rng.Intn(memsys.PageSize), rng.Intn(8)
		dir := dram.ZeroToOne
		if file[page*memsys.PageSize+off]&(1<<bit) != 0 {
			dir = dram.OneToZero
		}
		reqs = append(reqs, profile.PageRequirement{
			FilePage: page,
			Flips:    []profile.CellFlip{{Offset: off, Bit: bit, Dir: dir}},
		})
	}
	return reqs
}

// sweepStats is what one campaign.Run sweep reports.
type sweepStats struct {
	wall   time.Duration
	online time.Duration // Σ StageTiming over campaigns
	stages core.StageTiming
	retry  int // Σ (rounds − 1)
	sum    *campaign.Summary
	digest [32]byte // over the scrubbed results
}

func addTiming(dst *core.StageTiming, t core.StageTiming) {
	dst.ProfileNs += t.ProfileNs
	dst.PlanNs += t.PlanNs
	dst.RetemplateNs += t.RetemplateNs
	dst.MassageNs += t.MassageNs
	dst.HammerNs += t.HammerNs
	dst.VerifyNs += t.VerifyNs
}

// runSweep runs one campaign.Run over the jobs in a span, attributes
// each campaign's StageTiming to it, and digests the scrubbed results.
func runSweep(jobs []campaign.Job, workers int, tr *tracer, op int) (*sweepStats, error) {
	id := tr.begin("campaign.run", op, -1)
	t0 := time.Now()
	sum := campaign.Run(jobs, campaign.Config{Workers: workers, MaxArenaBytes: fleetArenaCap})
	st := &sweepStats{wall: time.Since(t0), sum: sum}
	tr.end(id)
	for i := range sum.Results {
		res := &sum.Results[i]
		if res.Online != nil {
			stageParts(tr, res.Index, id, res.Online.Report.Timing)
			addTiming(&st.stages, res.Online.Report.Timing)
			st.retry += len(res.Online.Report.Rounds) - 1
		}
		res.Scrub()
	}
	s := st.stages
	st.online = time.Duration(s.ProfileNs + s.PlanNs + s.RetemplateNs + s.MassageNs + s.HammerNs + s.VerifyNs)
	b, err := json.Marshal(sum.Results)
	if err != nil {
		return nil, err
	}
	st.digest = sha256.Sum256(b)
	return st, nil
}

func runFleetWorkload(opt options) (*report, error) {
	r := &report{layers: map[string]float64{}}
	tr := opt.tr
	workers := runtime.NumCPU()

	// Set-up: build the inputs, then one warm-up campaign so lazy
	// set-up (worker pools, first allocations) finishes before timing.
	jobs, setup, err := repeatSetup(3, func() ([]campaign.Job, error) {
		jobs, err := fleetJobs(opt.seed)
		if err != nil {
			return nil, err
		}
		if sum := campaign.Run(jobs[:1], campaign.Config{Workers: 1}); sum.Failed != 0 {
			return nil, fmt.Errorf("warm-up campaign failed: %v", sum.Results[0].Err)
		}
		return jobs, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	r.setup = setup

	wantHits := 0
	for _, h := range campaign.HitAssignment(jobs, nil) {
		if h {
			wantHits++
		}
	}

	var sweeps []*sweepStats
	var perCampaign []time.Duration
	timedStart := time.Now()
	for len(sweeps) < fleetMinSweeps || time.Since(timedStart).Seconds() < opt.seconds {
		// Every sweep starts from a collected heap, as a fresh process
		// would. Without this the peak RSS crept up with the number of
		// sweeps a run fitted in, and the sweep time moved with the heap
		// state the previous sweep left (IQR 16% over ten seeds, 3%
		// with it).
		debug.FreeOSMemory()
		st, err := runSweep(jobs, workers, tr, len(sweeps))
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, st)
		perCampaign = append(perCampaign, st.wall/time.Duration(len(jobs)))
		r.attempted += len(jobs)
		for i, res := range st.sum.Results {
			if res.Err != nil {
				r.failed++
				r.check(false, "sweep %d: campaign %d (%s) failed: %v", len(sweeps)-1, i, res.Name, res.Err)
			}
		}
		r.check(st.sum.CacheHits == wantHits, "sweep %d: %d cache hits, HitAssignment says %d", len(sweeps)-1, st.sum.CacheHits, wantHits)
		r.check(st.digest == sweeps[0].digest, "sweep %d: scrubbed results differ from sweep 0", len(sweeps)-1)
		fmt.Fprintf(os.Stderr, "sweep %d: %d campaigns in %.2f s, %d cache hits, %d failed\n",
			len(sweeps)-1, len(jobs), st.wall.Seconds(), st.sum.CacheHits, st.sum.Failed)
	}
	timedWall := time.Since(timedStart)
	r.op = median(perCampaign)
	cold := len(jobs) - wantHits
	r.meta = map[string]any{
		"sweeps":            len(sweeps),
		"campaigns":         len(jobs),
		"cold_identities":   cold,
		"campaign_workers":  workers,
		"arena_cap_mb":      fleetArenaCap >> 20,
		"sweep_s":           secondsOf(wallsOf(sweeps)),
		"weight_file_pages": fleetFilePages,
	}
	if tr == nil {
		return r, nil
	}

	n := float64(len(sweeps))
	var run, online time.Duration
	var stages core.StageTiming
	var peak int64
	retry := 0
	for _, st := range sweeps {
		run += st.wall
		online += st.online
		addTiming(&stages, st.stages)
		retry += st.retry
		if st.sum.PeakReservedBytes > peak {
			peak = st.sum.PeakReservedBytes
		}
	}
	perSweepMs := func(ns int64) float64 { return ms(time.Duration(ns)) / n }
	r.layers["campaign.run_s"] = run.Seconds() / n
	r.layers["campaign.cache_hit_ratio"] = float64(wantHits) / float64(len(jobs))
	r.layers["campaign.peak_reserved_mb"] = float64(peak) / (1 << 20)
	r.layers["campaign.outside_online_s"] = (float64(workers)*run.Seconds() - online.Seconds()) / n
	r.layers["core.retry_rounds"] = float64(retry) / n
	r.layers["profile.template_ms"] = perSweepMs(stages.ProfileNs)
	r.layers["profile.plan_ms"] = perSweepMs(stages.PlanNs)
	r.layers["profile.retemplate_ms"] = perSweepMs(stages.RetemplateNs)
	r.layers["memsys.massage_ms"] = perSweepMs(stages.MassageNs)
	r.layers["dram.hammer_ms"] = perSweepMs(stages.HammerNs)
	r.layers["core.verify_ms"] = perSweepMs(stages.VerifyNs)

	// Probe: the fleet injects templates, so its ProfileNs is 0; time
	// profile.ProfileBuffer on a pristine module of each cold identity.
	tmpl, err := probeColdTemplates(jobs)
	if err != nil {
		return nil, err
	}
	r.layers["profile.cold_template_ms"] = ms(tmpl) / float64(cold)
	r.layers["profile.cold_template_total_s"] = tmpl.Seconds()
	traceLayers(r, tr, timedWall)
	return r, nil
}

// probeColdTemplates templates a pristine module of every distinct
// identity once, the way the campaign engine's cold path does, and
// returns the total ProfileBuffer time.
func probeColdTemplates(jobs []campaign.Job) (time.Duration, error) {
	var total time.Duration
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.Fingerprint()] {
			continue
		}
		seen[j.Fingerprint()] = true
		mod, err := dram.NewModule(dram.GeometryForSize(j.Module.SizeBytes, 16), j.Module.Device, j.Module.Seed)
		if err != nil {
			return 0, err
		}
		sys := memsys.NewSystem(mod)
		sys.InjectFaults(j.Module.Fault)
		attacker := sys.NewProcess()
		base, err := attacker.Mmap(j.Online.BufferPages)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = profile.ProfileBuffer(sys, attacker, base, j.Online.BufferPages, profile.Config{
			Sides:       j.Online.Sides,
			Intensity:   j.Online.Intensity,
			MeasureSeed: j.Online.MeasureSeed,
		})
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

func wallsOf(sweeps []*sweepStats) []time.Duration {
	out := make([]time.Duration, len(sweeps))
	for i, st := range sweeps {
		out[i] = st.wall
	}
	return out
}
