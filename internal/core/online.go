package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/metrics"
	"rowhammer/internal/profile"
)

// OnlineConfig parameterizes the online (hammering) phase.
type OnlineConfig struct {
	// BufferPages is the attacker's templating buffer size in pages.
	BufferPages int
	// Sides is the hammer pattern width (2 for DDR3 double-sided, 7
	// for the paper's DDR4 online attack).
	Sides int
	// Intensity is the normalized per-aggressor activation budget.
	Intensity float64
	// MeasureSeed seeds the side-channel noise.
	MeasureSeed int64
	// WeightFileName names the victim's weight file on the simulated
	// disk.
	WeightFileName string

	// Robust-engine knobs. The zero values reproduce the single-shot
	// engine exactly: one hammer round, no escalation, no re-templating.

	// Rounds is the verify/re-hammer round budget (≤1 = single shot).
	// After each round the engine reads the mapped file back and
	// re-hammers only rows whose required flips did not fire.
	Rounds int
	// Escalation multiplies the re-hammer activation budget each round
	// after the first (0 or 1 = none). Budget above 1.0 does not fit a
	// single refresh window, so it spills into additional
	// full-intensity hammer passes per pending row — each with fresh
	// per-pass fault draws.
	Escalation float64
	// RetemplatePasses bounds adaptive re-templating: while the plan
	// leaves requirements unmatched, the engine doubles the attacker
	// buffer (until MaxBufferPages) or re-sweeps it to union in flips
	// earlier passes missed, then re-plans.
	RetemplatePasses int
	// MaxBufferPages caps the exponential buffer growth (0 = 8×
	// BufferPages).
	MaxBufferPages int

	// Profile, when non-nil, is a pre-computed flip template for the
	// attacker buffer and ExecuteOnline skips the templating sweep
	// entirely — the cross-campaign cache's warm path. It must describe
	// the exact buffer this run would otherwise profile: same base, same
	// page count, mapped onto the same frames (profile.CheckMapping; a
	// template drawn on a System that was not pristine is refused). The
	// profile is treated as shared and read-only; when RetemplatePasses
	// allows in-place mutation, the engine works on a private clone. Excluded
	// from JSON: a template is process-local runtime state, not part of
	// a serialized job spec.
	Profile *profile.Profile `json:"-"`

	// AfterRound, when non-nil, is called after each verify round with
	// the round number and a private copy of the weight file as the
	// victim's page cache serves it at that instant. This is the
	// victim-under-fire seam: a serving harness hot-swaps the partially
	// corrupted weights into the live engine between hammer rounds,
	// measuring the model as it degrades instead of only after the
	// attack finishes. The callback runs on the attack goroutine; the
	// byte slice is the callee's to keep. Excluded from JSON (func
	// values cannot marshal and would poison serialized job specs).
	AfterRound func(round int, mapped []byte) `json:"-"`
}

// validateRetryKnobs rejects negative retry machinery. A negative value
// is always a caller bug — silently treating it as "disabled" (what the
// < 1 clamps downstream would do) hides mis-wired sweep configs, so the
// engine refuses loudly instead.
func (cfg OnlineConfig) validateRetryKnobs() error {
	if cfg.Rounds < 0 {
		return fmt.Errorf("core: Rounds must be >= 0, got %d", cfg.Rounds)
	}
	if cfg.Escalation < 0 {
		return fmt.Errorf("core: Escalation must be >= 0, got %v", cfg.Escalation)
	}
	if cfg.RetemplatePasses < 0 {
		return fmt.Errorf("core: RetemplatePasses must be >= 0, got %d", cfg.RetemplatePasses)
	}
	if cfg.MaxBufferPages < 0 {
		return fmt.Errorf("core: MaxBufferPages must be >= 0, got %d", cfg.MaxBufferPages)
	}
	return nil
}

// DefaultOnlineConfig sizes the templating buffer for a weight file of
// filePages pages. The floor of 32768 pages (128 MB) is the paper's
// profiling scale and is what Eq. 2 needs for the probability of
// finding a page with one specific (offset, bit, direction) flip to
// approach 1; smaller buffers leave requirements unmatched.
func DefaultOnlineConfig(filePages int) OnlineConfig {
	buf := filePages * 4
	if buf < 32768 {
		buf = 32768
	}
	if buf%2 == 1 {
		buf++
	}
	return OnlineConfig{
		BufferPages:    buf,
		Sides:          2,
		Intensity:      1,
		WeightFileName: "model-weights.bin",
	}
}

// RobustOnlineConfig is DefaultOnlineConfig plus the retry machinery
// the lossy real world needs: a 5-round verify/re-hammer budget with
// budget-doubling escalation (a straggler row gets 2, 4, 8, 16 hammer
// passes across the retry rounds) and two adaptive re-templating
// passes. On a fault-free module it reproduces the single-shot result
// byte for byte (round 1 fires everything, so no retry ever triggers).
func RobustOnlineConfig(filePages int) OnlineConfig {
	cfg := DefaultOnlineConfig(filePages)
	cfg.Rounds = 5
	cfg.Escalation = 2
	cfg.RetemplatePasses = 2
	return cfg
}

// OnlineResult reports what the hammering actually achieved.
type OnlineResult struct {
	// CorruptedFile is the weight file as the victim now sees it
	// through the page cache.
	CorruptedFile []byte
	// Plan is the placement the attacker executed.
	Plan *profile.Placement
	// NFlipOnline is the Hamming distance between the original and
	// corrupted files over the model bytes (target + accidental flips
	// that actually fired).
	NFlipOnline int
	// NMatch counts required bits that really flipped.
	NMatch int
	// NRequired is the offline N_flip (total required bits).
	NRequired int
	// Unmatched counts required bits whose page requirement the planner
	// could not place on any flippy page — they never had a chance to
	// fire, even before hammering luck enters.
	Unmatched int
	// AccidentalFlips counts flips outside the required set.
	AccidentalFlips int
	// RMatch is the paper's DRAM match rate (percent).
	RMatch float64
	// Report is the structured per-round/per-stage account of the
	// robust engine's work.
	Report *AttackReport
}

// replaySweep answers a re-templating pass that certainly replays the
// template (profile.ReplaySweep). A variable so tests can force the
// sweep it stands for, or watch which passes it answers.
var replaySweep = profile.ReplaySweep

// pendingFlip is one matched-requirement flip the verify loop still
// waits on: where to look in the victim's mapping and which row to
// re-hammer if it has not fired.
type pendingFlip struct {
	row   int // Profile.Rows index hosting the requirement
	vaddr int // victim virtual address of the byte
	bit   int
	dir   dram.FlipDirection
}

// ExecuteOnline runs the full online phase against a simulated system:
// write the victim's weight file to disk, profile an attacker buffer,
// plan the placement of required flips onto flippy pages — adaptively
// growing or re-sweeping the buffer while requirements stay unmatched —
// massage the page-frame cache (Listing 1), let the victim map the
// file, hammer, then verify and re-hammer rows whose required flips did
// not fire until the round budget runs out, and return the corrupted
// file the page cache now serves.
func ExecuteOnline(sys *memsys.System, weightFile []byte, reqs []profile.PageRequirement, cfg OnlineConfig) (*OnlineResult, error) {
	if cfg.WeightFileName == "" {
		cfg.WeightFileName = "model-weights.bin"
	}
	if err := cfg.validateRetryKnobs(); err != nil {
		return nil, err
	}
	if len(weightFile)%memsys.PageSize != 0 {
		return nil, fmt.Errorf("core: weight file must be page aligned, got %d bytes", len(weightFile))
	}
	filePages := len(weightFile) / memsys.PageSize
	sys.WriteFile(cfg.WeightFileName, weightFile)
	report := &AttackReport{}

	// Offline-on-machine step: template the attacker buffer.
	attacker := sys.NewProcess()
	bufBase, err := attacker.Mmap(cfg.BufferPages)
	if err != nil {
		return nil, fmt.Errorf("core: attacker buffer: %w", err)
	}
	pcfg := profile.Config{
		Sides:       cfg.Sides,
		Intensity:   cfg.Intensity,
		MeasureSeed: cfg.MeasureSeed,
	}
	var prof *profile.Profile
	if cfg.Profile != nil {
		// Warm path: reuse a cached template instead of re-sweeping the
		// buffer. The template is only valid for the buffer it described —
		// aggressor vaddrs and buffer-page indices are positional.
		if cfg.Profile.BufBase != bufBase || cfg.Profile.BufPages != cfg.BufferPages {
			return nil, fmt.Errorf("core: cached profile covers buffer %#x/%d pages, this run maps %#x/%d",
				cfg.Profile.BufBase, cfg.Profile.BufPages, bufBase, cfg.BufferPages)
		}
		if err := cfg.Profile.CheckMapping(attacker); err != nil {
			return nil, fmt.Errorf("core: cached profile: %w", err)
		}
		prof = cfg.Profile
		if cfg.RetemplatePasses > 0 {
			prof = prof.Clone()
		}
	} else {
		t0 := time.Now()
		prof, err = profile.ProfileBuffer(sys, attacker, bufBase, cfg.BufferPages, pcfg)
		report.Timing.ProfileNs += time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("core: profiling: %w", err)
		}
	}

	t0 := time.Now()
	plan, err := profile.PlanPlacement(prof, reqs, filePages)
	report.Timing.PlanNs += time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, fmt.Errorf("core: placement: %w", err)
	}

	// Adaptive re-templating: while requirements stay unmatched, double
	// the buffer (exponential, capped) and fall back to re-sweeping the
	// existing buffer once the cap is reached — useful under fault
	// injection, where each profiling pass misses a coin-flip's worth of
	// weak cells.
	maxBuf := cfg.MaxBufferPages
	if maxBuf == 0 {
		maxBuf = 8 * cfg.BufferPages
	}
	bufPages := cfg.BufferPages
	for pass := 1; len(plan.Unmatched) > 0 && pass <= cfg.RetemplatePasses; pass++ {
		t0 = time.Now()
		grew, replayed := false, false
		if bufPages*2 <= maxBuf {
			ext := bufPages
			extBase, merr := attacker.Mmap(ext)
			if merr == nil {
				if err := profile.ExtendProfile(sys, attacker, prof, extBase, ext, pcfg); err != nil {
					return nil, fmt.Errorf("core: re-templating pass %d: %w", pass, err)
				}
				bufPages += ext
				grew = true
			} else if !errors.Is(merr, memsys.ErrNoMemory) {
				return nil, fmt.Errorf("core: re-templating pass %d: %w", pass, merr)
			}
		}
		if !grew {
			// A re-sweep that certainly replays the template adds no flip
			// and leaves the plan as it is, so it is answered by advancing
			// the pass counters alone wherever skipping it cannot show.
			// Its fills and flips would touch only the buffer's experiment
			// rows, since no cell fires at single-sided disturbance, and a
			// later pass rewrites every one of them: the plan still leaves
			// requirements unmatched, nothing before the next pass
			// allocates a frame, so no later pass can grow, and the last
			// pass never replays.
			if pass < cfg.RetemplatePasses && !sys.Module().SingleSidedCanFire() {
				if replayed, err = replaySweep(sys, attacker, prof, pcfg); err != nil {
					return nil, fmt.Errorf("core: re-templating pass %d: %w", pass, err)
				}
			}
			if !replayed {
				if _, err := profile.ReprofileUnion(sys, attacker, prof, pcfg); err != nil {
					return nil, fmt.Errorf("core: re-templating pass %d: %w", pass, err)
				}
			}
		}
		report.Timing.RetemplateNs += time.Since(t0).Nanoseconds()

		if !replayed {
			t0 = time.Now()
			plan, err = profile.PlanPlacement(prof, reqs, filePages)
			report.Timing.PlanNs += time.Since(t0).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("core: re-placement: %w", err)
			}
		}
		report.Retemplates = append(report.Retemplates, RetemplateStats{
			Pass:         pass,
			Grew:         grew,
			BufferPages:  bufPages,
			ProfiledRows: len(prof.Rows),
			Unmatched:    len(plan.Unmatched),
		})
	}
	report.Unmatched = len(plan.Unmatched)

	// Drain stale frame-cache entries so the victim's faults pop
	// exactly the frames the massaging releases.
	t0 = time.Now()
	if _, _, err := attacker.DrainFrameCache(); err != nil {
		return nil, fmt.Errorf("core: draining frame cache: %w", err)
	}

	// Listing 1: release the chosen frames in reverse file order.
	if err := memsys.MassageFileMapping(attacker, bufBase, plan.Assignment); err != nil {
		return nil, fmt.Errorf("core: massaging: %w", err)
	}
	report.Timing.MassageNs += time.Since(t0).Nanoseconds()

	// The victim loads the model; the page cache pulls the file into
	// the attacker-chosen frames.
	victim := sys.NewProcess()
	fileBase, err := victim.MmapFile(cfg.WeightFileName)
	if err != nil {
		return nil, fmt.Errorf("core: victim map: %w", err)
	}

	// The verify set: every flip of every matched requirement, tagged
	// with the row to re-hammer if it fails to fire.
	var pending []pendingFlip
	for i, req := range plan.Matched {
		for _, f := range req.Flips {
			pending = append(pending, pendingFlip{
				row:   plan.MatchedRows[i],
				vaddr: fileBase + req.FilePage*memsys.PageSize + f.Offset,
				bit:   f.Bit,
				dir:   f.Dir,
			})
		}
	}
	totalMatched := len(pending)

	// verifyPending keeps only the flips that have not fired yet.
	verifyPending := func() error {
		kept := pending[:0]
		for _, pf := range pending {
			b, err := victim.ReadByteAt(pf.vaddr)
			if err != nil {
				return fmt.Errorf("core: verifying flip: %w", err)
			}
			set := b&(1<<pf.bit) != 0
			fired := set == (pf.dir == dram.ZeroToOne)
			if !fired {
				kept = append(kept, pf)
			}
		}
		pending = kept
		return nil
	}

	// Verify → re-hammer loop. Round 1 hammers the full plan — exactly
	// the single-shot engine; later rounds re-hammer only rows with
	// missing flips, at an escalated activation budget. Budget beyond
	// 1.0 cannot fit one refresh window, so it spills into additional
	// full-intensity hammer passes — each pass draws fresh per-pass
	// fault coins, which is what actually recovers cells that keep
	// failing to fire.
	rounds := cfg.Rounds
	if rounds < 1 {
		rounds = 1
	}
	esc := cfg.Escalation
	if esc <= 0 {
		esc = 1
	}
	budget := cfg.Intensity
	for round := 1; round <= rounds; round++ {
		var hammerRows []int
		if round == 1 {
			hammerRows = plan.HammerRows
		} else {
			budget *= esc
			hammerRows = missingRows(pending)
		}
		t0 = time.Now()
		for _, ri := range hammerRows {
			row := &prof.Rows[ri]
			if round == 1 {
				if err := profile.HammerRows(sys, attacker, row.AggressorVaddrs, row.Intensity); err != nil {
					return nil, fmt.Errorf("core: hammering row %d (round %d): %w", ri, round, err)
				}
				continue
			}
			for left := budget; left > 1e-9; left -= 1 {
				in := left
				if in > 1 {
					in = 1
				}
				if err := profile.HammerRows(sys, attacker, row.AggressorVaddrs, in); err != nil {
					return nil, fmt.Errorf("core: hammering row %d (round %d): %w", ri, round, err)
				}
			}
		}
		report.Timing.HammerNs += time.Since(t0).Nanoseconds()

		t0 = time.Now()
		if err := verifyPending(); err != nil {
			return nil, err
		}
		report.Timing.VerifyNs += time.Since(t0).Nanoseconds()
		report.Rounds = append(report.Rounds, RoundStats{
			Round:        round,
			RowsHammered: len(hammerRows),
			NMatch:       totalMatched - len(pending),
			Missing:      len(pending),
		})
		if cfg.AfterRound != nil {
			mapped, err := victim.ReadMapped(fileBase, len(weightFile))
			if err != nil {
				return nil, fmt.Errorf("core: reading mapped file after round %d: %w", round, err)
			}
			cfg.AfterRound(round, mapped)
		}
		if len(pending) == 0 {
			break
		}
	}

	corrupted, err := victim.ReadMapped(fileBase, len(weightFile))
	if err != nil {
		return nil, fmt.Errorf("core: reading corrupted file: %w", err)
	}

	res := &OnlineResult{
		CorruptedFile: corrupted,
		Plan:          plan,
		Unmatched:     len(plan.Unmatched),
		Report:        report,
	}
	res.tally(weightFile, corrupted, reqs)
	return res, nil
}

// missingRows returns the sorted, deduplicated row indices of the still
// missing flips — the deterministic re-hammer order.
func missingRows(pending []pendingFlip) []int {
	seen := make(map[int]bool, len(pending))
	var rows []int
	for _, pf := range pending {
		if !seen[pf.row] {
			seen[pf.row] = true
			rows = append(rows, pf.row)
		}
	}
	sort.Ints(rows)
	return rows
}

// tally computes the online metrics from the observed corruption.
func (r *OnlineResult) tally(orig, corrupted []byte, reqs []profile.PageRequirement) {
	required := make(map[[3]int]bool)
	for _, req := range reqs {
		for _, f := range req.Flips {
			required[[3]int{req.FilePage, f.Offset, f.Bit}] = true
			r.NRequired++
		}
	}
	disturbedPages := make(map[int]bool)
	for i := range orig {
		d := orig[i] ^ corrupted[i]
		if d == 0 {
			continue
		}
		page := i / memsys.PageSize
		off := i % memsys.PageSize
		// Any flipped bit — required or accidental — marks the page
		// disturbed; δ averages over all of them.
		disturbedPages[page] = true
		for bit := 0; bit < 8; bit++ {
			if d&(1<<bit) == 0 {
				continue
			}
			r.NFlipOnline++
			if required[[3]int{page, off, bit}] {
				r.NMatch++
			} else {
				r.AccidentalFlips++
			}
		}
	}
	// δ: average accidental flips per disturbed target page (matched
	// targets and collateral alike, per §V-B — not just pages that
	// happened to take accidental flips, which would inflate δ and
	// understate r_match).
	deltaPerPage := 0.0
	if len(disturbedPages) > 0 {
		deltaPerPage = float64(r.AccidentalFlips) / float64(len(disturbedPages))
	}
	r.RMatch = metrics.RMatch(r.NMatch, r.NRequired, deltaPerPage)
}
