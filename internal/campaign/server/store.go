// Checkpoint layout. Every fleet owns one directory under
// <Dir>/fleets/<id>/:
//
//	fleet.json    — the submitted FleetSpec plus the profile-cache key
//	                fingerprints that were warm at submission (the hit
//	                seed). Written once, before the submission is
//	                acknowledged.
//	results.jsonl — one campaign.Result JSON line per COMPLETED
//	                campaign, appended and fsynced as each finishes.
//	                Campaigns a killed daemon never finished simply have
//	                no line.
//	summary.json  — the final FleetStatus (digest, SKU aggregation).
//	                Its existence marks the fleet done.
//
// Resume is a pure replay: reload the spec (job resolution is pure, so
// fingerprints and the hit assignment reproduce exactly), mark every
// index present in results.jsonl as complete, and hand the engine only
// the remainder with the original indices and hit flags. The engine's
// canonical-order determinism invariant does the rest — the re-run
// campaigns are byte-identical to what the uninterrupted run would have
// produced, so the final digest is too.
package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rowhammer/internal/campaign"
)

// persistedFleet is the fleet.json schema.
type persistedFleet struct {
	ID string
	// Spec is the verbatim submission.
	Spec FleetSpec
	// SeedKeys are the profile-cache fingerprints warm at submission —
	// the seed of the canonical cache-hit assignment.
	SeedKeys []string
}

func fleetsRoot(dir string) string        { return filepath.Join(dir, "fleets") }
func fleetDir(dir, id string) string      { return filepath.Join(fleetsRoot(dir), id) }
func fleetSpecPath(dir, id string) string { return filepath.Join(fleetDir(dir, id), "fleet.json") }
func resultsPath(dir, id string) string   { return filepath.Join(fleetDir(dir, id), "results.jsonl") }
func summaryPath(dir, id string) string   { return filepath.Join(fleetDir(dir, id), "summary.json") }

// writeJSONFile writes v as JSON via a temp file + rename so a crash
// mid-write never leaves a torn spec or summary behind.
func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// saveFleet persists a freshly submitted fleet before the submission is
// acknowledged.
func saveFleet(dir string, pf persistedFleet) error {
	if err := os.MkdirAll(fleetDir(dir, pf.ID), 0o755); err != nil {
		return err
	}
	return writeJSONFile(fleetSpecPath(dir, pf.ID), pf)
}

// loadResults replays a fleet's results.jsonl into an index → Result
// map. A torn final line (the daemon died mid-append) ends the replay;
// everything before it is intact because each line was fsynced before
// the campaign counted as complete.
func loadResults(dir, id string, campaigns int) (map[int]campaign.Result, error) {
	f, err := os.Open(resultsPath(dir, id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	out := make(map[int]campaign.Result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r campaign.Result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			break // torn tail — replay stops here
		}
		if r.Index < 0 || r.Index >= campaigns {
			return nil, fmt.Errorf("campaignd: fleet %s: result index %d out of range", id, r.Index)
		}
		out[r.Index] = r
	}
	return out, sc.Err()
}

// listFleetIDs returns the checkpointed fleet ids in submission order
// (ids are zero-padded monotone counters, so lexicographic order is
// submission order).
func listFleetIDs(dir string) ([]string, error) {
	ents, err := os.ReadDir(fleetsRoot(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// resultLog is the append-and-fsync handle for one running fleet's
// results.jsonl.
type resultLog struct {
	f *os.File
}

func openResultLog(dir, id string) (*resultLog, error) {
	f, err := os.OpenFile(resultsPath(dir, id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &resultLog{f: f}, nil
}

// append writes one result line and fsyncs it: a campaign only counts
// as checkpointed once the bytes are durable, so resume never trusts a
// result the disk might not hold.
func (l *resultLog) append(r campaign.Result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if _, err := l.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return l.f.Sync()
}

func (l *resultLog) Close() error { return l.f.Close() }
