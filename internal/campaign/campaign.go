// Package campaign is the fleet-scale attack orchestrator: it runs many
// (victim, module, attack-config) campaigns concurrently on a bounded
// worker pool, pipelining each campaign's offline/template/plan/online
// stages so the online phase of one overlaps the templating of the
// next, deduplicating template work through a content-addressed profile
// cache, and pooling whole simulated systems (module arenas plus
// OS-simulation bookkeeping) so peak memory tracks concurrency instead
// of fleet size.
//
// The engine's canonical execution of one campaign is two-staged:
// template a pristine System of the campaign's identity, then rewind
// the System to that same pristine identity and run the online attack
// with the template injected (core.OnlineConfig.Profile). Because the
// online stage always starts from a pristine System and a finished
// template — whether the template was just computed or pulled from the
// cache — results are byte-identical at any worker count and any cache
// state. That invariant is what makes the cache sound, what lets a
// bounded cache evict and re-compute freely, and what lets a daemon
// checkpoint a half-finished fleet and resume it to byte-identical
// results; the tests assert it directly.
package campaign

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"rowhammer/internal/core"
	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/profile"
)

// ModuleSpec pins a campaign's DRAM identity: which device it is, how
// big, which weak-cell layout, and which fault model the environment
// imposes. Campaigns with equal specs attack physically identical
// modules.
type ModuleSpec struct {
	// Device is the Table I device profile.
	Device dram.DeviceProfile
	// SizeBytes is the module capacity (rounded up to the 16-bank
	// geometry NewModuleForSize uses).
	SizeBytes int
	// Seed keys the weak-cell layout.
	Seed int64
	// Fault is the fault model installed for both stages (zero value =
	// fully deterministic module).
	Fault dram.FaultModel
}

// geometry resolves the spec to the standard 16-bank layout.
func (s ModuleSpec) geometry() dram.Geometry {
	return dram.GeometryForSize(s.SizeBytes, 16)
}

// NewSystem builds a pristine module of the spec's identity with its
// fault model installed — the single-module form HammerOnline and
// ServeUnderFire template and attack in one piece. (Installing the zero
// fault model is a no-op.)
func (s ModuleSpec) NewSystem() (*memsys.System, error) {
	mod, err := dram.NewModule(s.geometry(), s.Device, s.Seed)
	if err != nil {
		return nil, err
	}
	sys := memsys.NewSystem(mod)
	sys.InjectFaults(s.Fault)
	return sys, nil
}

// SKU names the spec's stock-keeping unit (device + capacity class).
func (s ModuleSpec) SKU() string {
	return fmt.Sprintf("%s/%dMB", s.Device.Name, s.SizeBytes>>20)
}

// Job is one campaign: a weight file to corrupt, the bit flips it
// needs, the module to attack, and the online configuration.
type Job struct {
	// Name labels the campaign in results and streaming output.
	Name string
	// WeightFile is the victim's page-aligned weight file.
	WeightFile []byte
	// Reqs are the offline phase's per-page flip requirements.
	Reqs []profile.PageRequirement
	// Module is the DRAM identity under attack.
	Module ModuleSpec
	// Online configures the online engine. Profile must be nil — the
	// engine owns template injection.
	Online core.OnlineConfig
}

// profileKey derives the job's template identity.
func (j Job) profileKey() profileKey {
	return profileKey{
		geom:        j.Module.geometry(),
		device:      j.Module.Device,
		seed:        j.Module.Seed,
		fault:       j.Module.Fault,
		bufferPages: j.Online.BufferPages,
		sides:       j.Online.Sides,
		intensity:   j.Online.Intensity,
		measureSeed: j.Online.MeasureSeed,
	}
}

// Fingerprint is the job's template-identity fingerprint — the stable
// serialized form of the profile-cache key. Jobs with equal
// fingerprints share one flip template. Checkpoints persist fingerprint
// sets so a resumed fleet reproduces its original cache-hit assignment.
func (j Job) Fingerprint() string { return j.profileKey().fingerprint() }

func (j Job) skuKey() skuKey {
	return skuKey{device: j.Module.Device, geom: j.Module.geometry()}
}

// Result is one campaign's outcome.
type Result struct {
	// Index is the job's position in the submitted slice; Results in a
	// Summary are ordered by it regardless of completion order.
	Index int
	// Name echoes Job.Name.
	Name string
	// SKU echoes the module's stock-keeping unit.
	SKU string
	// CacheHit reports whether the campaign's template identity was
	// already warm when the fleet started. It is derived from the
	// canonical job order (the first job of each template identity is
	// the cold one), not from scheduling or eviction, so it is
	// deterministic at any worker count and any cache bound.
	CacheHit bool
	// ArenaBytes is the module arena high-water mark this campaign
	// observed. Observational only: pooled systems keep their slabs, so
	// the value depends on scheduling.
	ArenaBytes int64
	// Online is the attack outcome (nil when Err is set).
	Online *core.OnlineResult
	// Err is the campaign's failure, if any. One campaign failing does
	// not stop the fleet.
	Err error
}

// Scrub zeroes the observational, schedule-dependent fields (arena
// high-water mark, stage wall-clock) so results can be byte-compared
// across worker counts, cache states and resume boundaries. Everything
// left is covered by the determinism invariant.
func (r *Result) Scrub() {
	r.ArenaBytes = 0
	if r.Online != nil && r.Online.Report != nil {
		r.Online.Report.Timing = core.StageTiming{}
	}
}

// SKUStats aggregates the fleet's outcomes per module SKU.
type SKUStats struct {
	SKU       string
	Campaigns int
	CacheHits int
	Failed    int
	// NMatch/NRequired sum the per-campaign flip tallies.
	NMatch    int
	NRequired int
	// MaxArenaBytes is observational (see Result.ArenaBytes).
	MaxArenaBytes int64
}

// Summary is the fleet outcome.
type Summary struct {
	// Results holds every campaign in canonical (submission) order.
	Results []Result
	// Failed counts campaigns with Err set (including campaigns a
	// cancelled run never finished).
	Failed int
	// CacheHits counts campaigns served a cached template.
	CacheHits int
	// PeakReservedBytes is the admission controller's high-water mark.
	// Observational: it depends on scheduling.
	PeakReservedBytes int64
	// SKUs aggregates per stock-keeping unit, sorted by SKU name.
	SKUs []SKUStats
}

// Config controls the fleet engine.
type Config struct {
	// Workers bounds concurrently executing campaigns (≤0 = 1). The
	// dispatcher runs exactly this many goroutines over the job list, so
	// a 10k-job fleet parks zero goroutines beyond the worker count.
	Workers int
	// MaxArenaBytes caps estimated in-flight module state; 0 removes
	// the cap. Campaigns over the cap admit alone, clamped.
	MaxArenaBytes int64
	// Cache, when non-nil, is shared across Run invocations (a warm
	// fleet); nil gives the run a private cache.
	Cache *ProfileCache
	// OnResult, when non-nil, streams each campaign's Result as it
	// finishes (completion order, not submission order). Calls are
	// serialized. Campaigns a cancelled run never finished are NOT
	// streamed — checkpointing daemons rely on that to record only
	// completed work.
	OnResult func(Result)
	// Indices, when non-nil, maps each position in jobs to its canonical
	// index in the originally submitted fleet (len must equal len(jobs)).
	// This is the resume path: a daemon re-running the pending subset of
	// a checkpointed fleet keeps the original Result.Index values.
	Indices []int
	// Hits, when non-nil, overrides the canonical cache-hit assignment
	// (len must equal len(jobs)). Resume pairs it with Indices so a
	// resumed fleet reproduces the hit flags its uninterrupted run would
	// have emitted, regardless of the live cache's current contents.
	Hits []bool

	// getSystem, when non-nil, replaces the system pool's allocator —
	// a test seam for injecting transient allocation failures.
	getSystem func(g dram.Geometry, d dram.DeviceProfile, seed int64) (*memsys.System, error)
}

// engine is the per-Run state.
type engine struct {
	cache *ProfileCache
	pool  systemPool
	adm   *byteSem
	get   func(g dram.Geometry, d dram.DeviceProfile, seed int64) (*memsys.System, error)
}

// systemPool recycles simulated systems across campaigns, keyed by
// module geometry: get resets a pooled System to the wanted identity or
// builds a fresh one, put returns a System for reuse. put never resets
// — the caller may still read results — so get pays the O(pages)
// rewind, far cheaper than faulting in fresh multi-MB slices per
// campaign. Safe for concurrent use; the zero value is empty.
type systemPool struct {
	mu   sync.Mutex
	free map[dram.Geometry][]*memsys.System
}

func (p *systemPool) get(geom dram.Geometry, device dram.DeviceProfile, seed int64) (*memsys.System, error) {
	p.mu.Lock()
	var sys *memsys.System
	if list := p.free[geom]; len(list) > 0 {
		sys = list[len(list)-1]
		p.free[geom] = list[:len(list)-1]
	}
	p.mu.Unlock()
	if sys != nil {
		sys.Reset(device, seed)
		return sys, nil
	}
	mod, err := dram.NewModule(geom, device, seed)
	if err != nil {
		return nil, err
	}
	return memsys.NewSystem(mod), nil
}

// put makes the System available for a future get. Its previous owner
// must no longer use it.
func (p *systemPool) put(sys *memsys.System) {
	geom := sys.Module().Geometry()
	p.mu.Lock()
	if p.free == nil {
		p.free = make(map[dram.Geometry][]*memsys.System)
	}
	p.free[geom] = append(p.free[geom], sys)
	p.mu.Unlock()
}

// templateJob profiles a pristine System of the job's identity and
// returns the primed, shareable template. The System is left dirty;
// callers reset or pool it.
func templateJob(job Job, sys *memsys.System) (*profile.Profile, error) {
	sys.InjectFaults(job.Module.Fault)
	attacker := sys.NewProcess()
	base, err := attacker.Mmap(job.Online.BufferPages)
	if err != nil {
		return nil, fmt.Errorf("campaign: attacker buffer: %w", err)
	}
	prof, err := profile.ProfileBuffer(sys, attacker, base, job.Online.BufferPages, profile.Config{
		Sides:       job.Online.Sides,
		Intensity:   job.Online.Intensity,
		MeasureSeed: job.Online.MeasureSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: templating: %w", err)
	}
	// Primed before sharing: planning against the template is then a
	// pure read and any number of campaigns may plan concurrently.
	prof.PrimeIndex()
	return prof, nil
}

// onlineJob runs the online attack on a pristine System with the
// template injected.
func onlineJob(job Job, sys *memsys.System, prof *profile.Profile) (*core.OnlineResult, error) {
	sys.InjectFaults(job.Module.Fault)
	cfg := job.Online
	cfg.Profile = prof
	return core.ExecuteOnline(sys, job.WeightFile, job.Reqs, cfg)
}

// Validate rejects jobs the engine cannot execute canonically, and
// fault knobs or flip requirements that cannot apply to the job's
// module and weight file.
func (j Job) Validate() error {
	if j.Online.Profile != nil {
		return fmt.Errorf("campaign: job %q pre-sets Online.Profile; the engine owns template injection", j.Name)
	}
	if j.Online.BufferPages <= 0 {
		return fmt.Errorf("campaign: job %q has no templating buffer (BufferPages = %d)", j.Name, j.Online.BufferPages)
	}
	if j.Module.SizeBytes <= 0 {
		return fmt.Errorf("campaign: job %q has no module size", j.Name)
	}
	if len(j.WeightFile) == 0 || len(j.WeightFile)%memsys.PageSize != 0 {
		return fmt.Errorf("campaign: job %q: weight file must be a non-empty multiple of %d bytes, got %d",
			j.Name, memsys.PageSize, len(j.WeightFile))
	}
	// The negated range tests also catch NaN.
	if f := j.Module.Fault; !(f.FlipFailProb >= 0 && f.FlipFailProb <= 1) {
		return fmt.Errorf("campaign: job %q: flip failure probability %v outside [0, 1]", j.Name, f.FlipFailProb)
	} else if !(f.TRRJitter >= 0 && f.TRRJitter <= math.MaxFloat64) {
		return fmt.Errorf("campaign: job %q: TRR jitter %v is not a finite value ≥ 0", j.Name, f.TRRJitter)
	}
	pages := len(j.WeightFile) / memsys.PageSize
	for _, r := range j.Reqs {
		if r.FilePage < 0 || r.FilePage >= pages {
			return fmt.Errorf("campaign: job %q: requirement on file page %d outside [0, %d)", j.Name, r.FilePage, pages)
		}
		for _, c := range r.Flips {
			switch {
			case c.Offset < 0 || c.Offset >= memsys.PageSize:
				return fmt.Errorf("campaign: job %q: page %d flip offset %d outside [0, %d)", j.Name, r.FilePage, c.Offset, memsys.PageSize)
			case c.Bit < 0 || c.Bit >= 8:
				return fmt.Errorf("campaign: job %q: page %d flip bit %d outside [0, 8)", j.Name, r.FilePage, c.Bit)
			case c.Dir != dram.ZeroToOne && c.Dir != dram.OneToZero:
				return fmt.Errorf("campaign: job %q: page %d flip direction %d is neither 0→1 nor 1→0", j.Name, r.FilePage, c.Dir)
			}
		}
	}
	return nil
}

// RunCampaign executes one campaign serially on one fresh System with
// no pooling or caching — the canonical reference execution and the
// baseline the fleet benchmark compares against. index becomes
// Result.Index, so the serial and fleet paths emit identical metadata
// for the same job list. Run produces byte-identical per-campaign
// results.
func RunCampaign(index int, job Job) Result {
	r := Result{Index: index, Name: job.Name, SKU: job.Module.SKU()}
	if err := job.Validate(); err != nil {
		r.Err = err
		return r
	}
	mod, err := dram.NewModule(job.Module.geometry(), job.Module.Device, job.Module.Seed)
	if err != nil {
		r.Err = fmt.Errorf("campaign: module: %w", err)
		return r
	}
	sys := memsys.NewSystem(mod)
	prof, err := templateJob(job, sys)
	if err != nil {
		r.Err = err
		return r
	}
	// Rewind to the exact identity the template described; the online
	// stage starts from a pristine System in both engines.
	sys.Reset(job.Module.Device, job.Module.Seed)
	r.Online, r.Err = onlineJob(job, sys, prof)
	r.ArenaBytes = int64(mod.ArenaBytes())
	return r
}

// HitAssignment computes the canonical cache-hit flags for a job list:
// walking jobs in submission order, a job hits iff its template
// fingerprint was already seen — in the seed set (identities warm in a
// shared cache when the fleet starts) or on an earlier valid job.
// Invalid jobs never template, so they neither hit nor seed a key. The
// assignment is a pure function of (jobs, seed), which is what lets a
// daemon checkpoint the seed fingerprints at submission and reproduce
// the exact flags when resuming.
func HitAssignment(jobs []Job, seed []string) []bool {
	seen := make(map[string]bool, len(seed)+len(jobs))
	for _, fp := range seed {
		seen[fp] = true
	}
	hits := make([]bool, len(jobs))
	for i, j := range jobs {
		if j.Validate() != nil {
			continue
		}
		fp := j.Fingerprint()
		hits[i] = seen[fp]
		seen[fp] = true
	}
	return hits
}

// Run executes the fleet with no cancellation; see RunContext.
func Run(jobs []Job, cfg Config) *Summary {
	return RunContext(context.Background(), jobs, cfg)
}

// RunContext executes the fleet: every job, dispatched over cfg.Workers
// worker goroutines with template/plan/online stages pipelined across
// campaigns, template deduplication through the profile cache, pooled
// simulated systems, and admission control over estimated in-flight
// bytes.
// Per-campaign results are byte-identical to RunCampaign at any worker
// count and any cache state; only the observational fields (ArenaBytes,
// PeakReservedBytes, stage timings) depend on scheduling.
//
// Cancelling ctx stops the run at the next stage boundary: campaigns
// already past their last cancellation point complete and are streamed;
// everything else — queued jobs, admission waiters, cache followers —
// unwinds promptly, leaving no goroutines behind. Unfinished campaigns
// appear in the Summary with Err set to ctx's error and are not passed
// to OnResult.
func RunContext(ctx context.Context, jobs []Job, cfg Config) *Summary {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}
	cache := cfg.Cache
	if cache == nil {
		cache = NewProfileCache()
	}
	e := &engine{
		cache: cache,
		adm:   newByteSem(cfg.MaxArenaBytes),
		get:   cfg.getSystem,
	}
	if e.get == nil {
		e.get = e.pool.get
	}
	if cfg.Indices != nil && len(cfg.Indices) != len(jobs) {
		panic("campaign: len(Config.Indices) != len(jobs)")
	}
	if cfg.Hits != nil && len(cfg.Hits) != len(jobs) {
		panic("campaign: len(Config.Hits) != len(jobs)")
	}

	// CacheHit is assigned from canonical order — the first job of each
	// template identity (counting identities already in a shared cache)
	// is the cold one — so the flag does not wobble with scheduling or
	// eviction. Resume passes the assignment in explicitly.
	hits := cfg.Hits
	if hits == nil {
		hits = HitAssignment(jobs, cache.Fingerprints())
	}
	index := func(i int) int {
		if cfg.Indices != nil {
			return cfg.Indices[i]
		}
		return i
	}

	// Bounded dispatcher: exactly `workers` goroutines pull job
	// positions off a channel, so fleet size bounds nothing but the
	// result slice — a 10k-job fleet runs on a handful of goroutines
	// instead of parking one per job.
	results := make([]Result, len(jobs))
	finished := make([]bool, len(jobs))
	jobCh := make(chan int)
	var emitMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobCh {
				r, done := e.runJob(ctx, index(i), jobs[i], hits[i])
				results[i] = r
				finished[i] = done
				if done && cfg.OnResult != nil {
					emitMu.Lock()
					cfg.OnResult(r)
					emitMu.Unlock()
				}
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case jobCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobCh)
	wg.Wait()

	// Jobs the cancelled run never started or never finished carry the
	// cancellation error so the summary is explicit about missing work.
	for i := range jobs {
		if !finished[i] {
			results[i] = Result{
				Index: index(i), Name: jobs[i].Name, SKU: jobs[i].Module.SKU(),
				CacheHit: hits[i], Err: ctx.Err(),
			}
		}
	}

	return summarize(results, e.adm.peakReserved())
}

// runJob drives one campaign through the pipeline. The boolean reports
// completion: false means ctx cancelled the campaign mid-flight and the
// Result carries the cancellation error rather than an attack outcome.
func (e *engine) runJob(ctx context.Context, idx int, job Job, hit bool) (Result, bool) {
	r := Result{Index: idx, Name: job.Name, SKU: job.Module.SKU(), CacheHit: hit}
	if err := job.Validate(); err != nil {
		r.Err = err
		return r, true
	}
	spec := job.Module

	// Admission first: the reservation covers the campaign end to end,
	// so the byte cap bounds resident state no matter how many worker
	// slots exist.
	granted, err := e.adm.acquire(ctx, e.arenaEstimate(job))
	if err != nil {
		r.Err = err
		return r, false
	}
	defer e.adm.release(granted)

	var prof *profile.Profile
	var sys *memsys.System
	for {
		entry, leader := e.cache.begin(job.profileKey())
		if leader {
			if err := ctx.Err(); err != nil {
				// A cancelled leader must not leave followers parked on an
				// entry nobody will finish: abort removes it and wakes them.
				e.cache.abort(entry, err)
				r.Err = err
				return r, false
			}
			sys, err = e.get(spec.geometry(), spec.Device, spec.Seed)
			if err != nil {
				// Pre-template failure: environmental, not a function of the
				// template key. Caching it would poison every future campaign
				// of this identity (fatal for a long-lived daemon), so the
				// entry is removed and followers re-attempt.
				e.cache.abort(entry, err)
				r.Err = fmt.Errorf("campaign: module: %w", err)
				return r, true
			}
			prof, err = templateJob(job, sys)
			// The template computation's outcome — profile or error — is a
			// deterministic function of the key: cache it either way.
			e.cache.publish(entry, prof, err)
			if err != nil {
				e.pool.put(sys)
				r.Err = err
				return r, true
			}
			break
		}
		if err := e.cache.wait(ctx, entry); err != nil {
			r.Err = err
			return r, false
		}
		if entry.transient {
			// The leader aborted without deciding the key (allocation
			// failure or cancellation). Re-begin: this campaign may become
			// the new leader and re-attempt the template.
			if err := ctx.Err(); err != nil {
				r.Err = err
				return r, false
			}
			continue
		}
		if entry.err != nil {
			r.Err = entry.err
			return r, true
		}
		prof = entry.prof
		break
	}

	if sys != nil {
		sys.Reset(spec.Device, spec.Seed)
	} else {
		sys, err = e.get(spec.geometry(), spec.Device, spec.Seed)
		if err != nil {
			r.Err = fmt.Errorf("campaign: module: %w", err)
			return r, true
		}
	}
	r.Online, r.Err = onlineJob(job, sys, prof)
	r.ArenaBytes = int64(sys.Module().ArenaBytes())
	e.pool.put(sys)
	e.cache.observe(job.skuKey(), r.ArenaBytes)
	return r, true
}

// arenaEstimate guesses a campaign's resident-state footprint for
// admission. A sparse module holds a 256 B patch cell (1/16 of a page)
// for each buffer page left holding flips — at most about half of them,
// the victim rows — and whole 4 KB arena cells only for the weight file
// and the rare page whose patch overflows, so the estimate is 1/32 of
// the buffer plus the file plus one 2 MB arena slab of slack. The SKU's
// observed arena high-water mark, when larger, replaces the guess:
// strictly advisory, it only shapes admission order.
func (e *engine) arenaEstimate(job Job) int64 {
	est := int64(job.Online.BufferPages)*memsys.PageSize/32 +
		int64(len(job.WeightFile)) + 2<<20
	return max(est, e.cache.arenaPrior(job.skuKey()))
}

// Summarize assembles the canonical-order summary from per-campaign
// results (ordered by Result.Index as stored). Exposed so a resuming
// daemon can fold checkpointed and freshly computed results into the
// same aggregate shape Run produces.
func Summarize(results []Result) *Summary {
	return summarize(results, 0)
}

// summarize assembles the canonical-order summary.
func summarize(results []Result, peak int64) *Summary {
	s := &Summary{Results: results, PeakReservedBytes: peak}
	bySKU := make(map[string]*SKUStats)
	var names []string
	for i := range results {
		r := &results[i]
		st := bySKU[r.SKU]
		if st == nil {
			st = &SKUStats{SKU: r.SKU}
			bySKU[r.SKU] = st
			names = append(names, r.SKU)
		}
		st.Campaigns++
		if r.CacheHit {
			st.CacheHits++
			s.CacheHits++
		}
		// The arena high-water mark is observational but real for failed
		// campaigns too (an online-stage failure still materialized its
		// module); excluding them would under-report peak memory.
		if r.ArenaBytes > st.MaxArenaBytes {
			st.MaxArenaBytes = r.ArenaBytes
		}
		if r.Err != nil {
			st.Failed++
			s.Failed++
			continue
		}
		st.NMatch += r.Online.NMatch
		st.NRequired += r.Online.NRequired
	}
	sort.Strings(names)
	for _, n := range names {
		s.SKUs = append(s.SKUs, *bySKU[n])
	}
	return s
}
