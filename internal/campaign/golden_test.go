package campaign

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rowhammer/internal/core"
	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/profile"
	"rowhammer/internal/tensor"
)

// updateGolden rewrites this package's lines of
// testdata/golden/digests.txt from the current code. Every
// regeneration needs a CHANGES.md line saying why the results moved.
var updateGolden = flag.Bool("update", false, "rewrite the fleet digest in testdata/golden")

var goldenFile = filepath.Join("..", "..", "testdata", "golden", "digests.txt")

// goldenIdentity is one module identity of the golden fleet and how
// many campaigns hit it.
type goldenIdentity struct {
	device    string
	sizeMB    int
	sides     int
	faulty    bool // 0.3 flip-fail fault model plus core.RobustOnlineConfig
	campaigns int
}

// goldenFleet builds the perfbench fleet mix — a 66-page seeded weight
// file (ResNet-20 at full width), one single-bit flip per 7 pages, DDR3
// double-sided A1/E1, DDR4 7-sided L2/K1, and a faulty sparse DDR3 A2
// at 192 MB under RobustOnlineConfig — plus the same faulty A2 at
// 512 MB. The 192 MB module has no room to grow its buffer, so its
// re-templating re-sweeps it (ReprofileUnion, which inserts flips into
// the indexed rows); the 512 MB one grows it twice (ExtendProfile,
// which appends rows). Both start from a clone of the cached template.
// Jobs take the identities in turn, as perfbench does: 34 campaigns,
// 10 with short.
func goldenFleet(t *testing.T, short bool) []Job {
	t.Helper()
	const filePages, groupPages = 66, 7
	mix := []goldenIdentity{
		{"A1", 192, 2, false, 8},
		{"E1", 256, 2, false, 8},
		{"L2", 192, 7, false, 6},
		{"K1", 256, 7, false, 6},
		{"A2", 192, 2, true, 4},
		{"A2", 512, 2, true, 2},
	}
	if short {
		for i := range mix {
			mix[i].campaigns = 2
			if mix[i].faulty {
				mix[i].campaigns = 1
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	file := make([]byte, filePages*memsys.PageSize)
	rng.Read(file)

	var jobs []Job
	for c := 0; ; c++ {
		added := false
		for idx, id := range mix {
			if c >= id.campaigns {
				continue
			}
			added = true
			spec := ModuleSpec{Device: tableIDevice(t, id.device), SizeBytes: id.sizeMB << 20, Seed: int64(101 + idx)}
			online := core.DefaultOnlineConfig(filePages)
			if id.faulty {
				online = core.RobustOnlineConfig(filePages)
				spec.Fault = dram.FaultModel{FlipFailProb: 0.3, Seed: int64(201 + idx)}
			}
			online.Sides = id.sides
			online.MeasureSeed = 7
			var reqs []profile.PageRequirement
			for lo := 0; lo < filePages; lo += groupPages {
				page := lo + rng.Intn(min(groupPages, filePages-lo))
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
			jobs = append(jobs, Job{
				Name:       fmt.Sprintf("%s-%dMB-id%d-c%d", id.device, id.sizeMB, idx, c),
				WeightFile: file,
				Reqs:       reqs,
				Module:     spec,
				Online:     online,
			})
		}
		if !added {
			return jobs
		}
	}
}

// fleetDigest runs the jobs at 2 workers under a 256 MB arena cap and
// hashes the scrubbed results' JSON.
func fleetDigest(t *testing.T, jobs []Job) string {
	t.Helper()
	sum := Run(jobs, Config{Workers: 2, MaxArenaBytes: 256 << 20})
	grew, swept := false, false
	for i := range sum.Results {
		r := &sum.Results[i]
		if r.Err != nil {
			t.Fatalf("campaign %s failed: %v", r.Name, r.Err)
		}
		for _, rt := range r.Online.Report.Retemplates {
			grew = grew || rt.Grew
			swept = swept || !rt.Grew
		}
		r.Scrub()
	}
	if !grew || !swept {
		t.Fatalf("re-templating grew a buffer: %v, re-swept one: %v; the digest must cover both incremental index paths", grew, swept)
	}
	b, err := json.Marshal(sum.Results)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestGoldenFleetDigest holds the perfbench-shaped fleet's scrubbed
// results byte-identical to the committed "any fleet/…" digest. The
// full run also checks the digest under the portable twins (the fleet
// runs no float or int8 GEMM; its byte scans have both forms); -short
// skips that second run, which the race suite would pay ~20× for.
func TestGoldenFleetDigest(t *testing.T) {
	name := "fleet/mix_w2"
	if testing.Short() {
		name += "_short"
	}
	jobs := goldenFleet(t, testing.Short())
	got := fleetDigest(t, jobs)
	if tensor.AcceleratedKernels() && !testing.Short() {
		restore := tensor.ForcePortableKernels()
		portable := fleetDigest(t, jobs)
		restore()
		if portable != got {
			t.Errorf("%s: avx2 digest %s, portable %s", name, got, portable)
		}
	}
	if *updateGolden {
		writeGoldenLine(t, "any "+name, got)
		return
	}
	want, ok := readGoldenLines(t)["any "+name]
	if !ok {
		t.Fatalf("any %s: no golden digest (got %s)", name, got)
	}
	if got != want {
		t.Errorf("any %s: digest %s, golden %s", name, got, want)
	}
}

// readGoldenLines parses the "kernelset name sha256" lines.
func readGoldenLines(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 3 {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		got[fs[0]+" "+fs[1]] = fs[2]
	}
	return got
}

// writeGoldenLine sets one digest line and rewrites the file with its
// header comments kept and the digest lines sorted, the layout
// internal/pretrain's writer produces.
func writeGoldenLine(t *testing.T, key, sum string) {
	t.Helper()
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var header []string
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			header = append(header, line)
		}
	}
	lines := readGoldenLines(t)
	lines[key] = sum
	keys := make([]string, 0, len(lines))
	for k := range lines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, h := range header {
		sb.WriteString(h + "\n")
	}
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s %s\n", k, lines[k])
	}
	if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
