// Command benchjson produces machine-readable JSON reports from
// `go test -bench` output. It has three modes:
//
//   - Filter mode (default): parse benchmark output on stdin.
//
//     go test -run xxx -bench EvalTAASR -benchmem ./internal/metrics/ | go run ./cmd/benchjson -o BENCH_eval.json
//
//   - Runner mode (-bench): invoke `go test -bench` itself over the
//     -pkg packages, parse as it streams, and optionally capture a CPU
//     profile.
//
//     go run ./cmd/benchjson -bench TrainStep -pkg ./internal/core -o BENCH_train.json
//     go run ./cmd/benchjson -bench TrainStep -pkg ./internal/core -cpuprofile cpu.out
//
//   - Check mode (-check): validate committed reports against the
//     schema and their baselines, exiting non-zero on drift. For every
//     argument file FOO.json that has a sibling FOO_baseline.json, the
//     baseline's benchmark names must appear in the report — a renamed
//     or dropped benchmark fails the check instead of silently breaking
//     the committed perf history.
//
//     go run ./cmd/benchjson -check BENCH_*.json
//
// Every report it writes carries a host object recording where the
// numbers came from: CPU count, the benchmarks' GOMAXPROCS, GOAMD64,
// CPU model and the commit. -check validates the object when present;
// reports written before it existed have none.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Entry is one benchmark line in normalized form.
type Entry struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when -benchmem was used.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// MBPerSec is present for benchmarks that call b.SetBytes.
	MBPerSec *float64 `json:"mb_per_sec,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Benchmarks []Entry `json:"benchmarks"`
	// Host describes the machine and build of the run; absent in
	// reports written before it was recorded.
	Host *Host `json:"host,omitempty"`
}

// Host is the run's provenance.
type Host struct {
	// NProc is the number of logical CPUs benchjson saw.
	NProc int `json:"nproc"`
	// GOMAXPROCS is the benchmarks' GOMAXPROCS: the -N suffix of the
	// first benchmark line, or 1 when go test printed none.
	GOMAXPROCS int `json:"gomaxprocs"`
	// GOAMD64 is the amd64 microarchitecture level of the build
	// (`go env GOAMD64`), empty off amd64.
	GOAMD64 string `json:"goamd64"`
	// CPU is the model go test reported on its "cpu:" line.
	CPU string `json:"cpu"`
	// Commit is the checked-out commit (`git rev-parse --short HEAD`),
	// suffixed "-dirty" when the tree has uncommitted changes, or
	// "unknown" outside a git checkout.
	Commit string `json:"commit"`
}

var (
	goamd64Re = regexp.MustCompile(`^v[1-4]$`)
	commitRe  = regexp.MustCompile(`^([0-9a-f]{7,40}(-dirty)?|unknown)$`)
)

// validate checks a host object's fields.
func (h *Host) validate() error {
	switch {
	case h.NProc < 1:
		return fmt.Errorf("host.nproc %d", h.NProc)
	case h.GOMAXPROCS < 1:
		return fmt.Errorf("host.gomaxprocs %d", h.GOMAXPROCS)
	case h.GOAMD64 != "" && !goamd64Re.MatchString(h.GOAMD64):
		return fmt.Errorf("host.goamd64 %q", h.GOAMD64)
	case strings.TrimSpace(h.CPU) == "":
		return fmt.Errorf("host.cpu is empty")
	case !commitRe.MatchString(h.Commit):
		return fmt.Errorf("host.commit %q", h.Commit)
	}
	return nil
}

// output runs a command and returns its trimmed stdout, or "" on error.
func output(name string, args ...string) string {
	out, err := exec.Command(name, args...).Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// hostInfo gathers the host object for a run whose first benchmark
// line carried GOMAXPROCS procs and whose go test output named cpu.
func hostInfo(procs int, cpu string) *Host {
	h := &Host{NProc: runtime.NumCPU(), GOMAXPROCS: procs, CPU: cpu}
	if runtime.GOARCH == "amd64" {
		h.GOAMD64 = output("go", "env", "GOAMD64")
	}
	h.Commit = output("git", "rev-parse", "--short", "HEAD")
	switch {
	case h.Commit == "":
		h.Commit = "unknown"
	case output("git", "status", "--porcelain", "--untracked-files=no") != "":
		h.Commit += "-dirty"
	}
	return h
}

// parseLine parses one benchmark result line, returning the entry and
// the GOMAXPROCS its name suffix records (1 when there is none).
func parseLine(line string) (Entry, int, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Entry{}, 0, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, 0, false
	}
	name := fields[0]
	procs := 1
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	e := Entry{Name: name, Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			e.NsPerOp = v
			seen = true
		case "B/op":
			b := v
			e.BytesPerOp = &b
		case "allocs/op":
			a := v
			e.AllocsPerOp = &a
		case "MB/s":
			m := v
			e.MBPerSec = &m
		}
	}
	return e, procs, seen
}

// loadReport reads a benchjson report strictly: unknown fields, trailing
// garbage, an empty benchmark list, or malformed entries are all errors.
// The strictness is the point — these files are committed perf history,
// and a silently tolerated schema drift corrupts every later comparison.
func loadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	if dec.More() {
		return Report{}, fmt.Errorf("%s: trailing data after report object", path)
	}
	if len(rep.Benchmarks) == 0 {
		return Report{}, fmt.Errorf("%s: no benchmark entries", path)
	}
	for i, e := range rep.Benchmarks {
		if e.Name == "" {
			return Report{}, fmt.Errorf("%s: entry %d has no name", path, i)
		}
		if e.Iterations <= 0 {
			return Report{}, fmt.Errorf("%s: %s: iterations %d", path, e.Name, e.Iterations)
		}
		if e.NsPerOp <= 0 {
			return Report{}, fmt.Errorf("%s: %s: ns_per_op %v", path, e.Name, e.NsPerOp)
		}
	}
	if rep.Host != nil {
		if err := rep.Host.validate(); err != nil {
			return Report{}, fmt.Errorf("%s: %w", path, err)
		}
	}
	return rep, nil
}

// baselinePath returns the sibling baseline report for a committed
// report ("BENCH_x.json" → "BENCH_x_baseline.json").
func baselinePath(path string) string {
	return strings.TrimSuffix(path, ".json") + "_baseline.json"
}

// runCheck validates every report and, where a sibling baseline exists,
// asserts the baseline's benchmark names survive in the report.
func runCheck(paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-check needs report files as arguments")
	}
	for _, path := range paths {
		rep, err := loadReport(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(strings.TrimSuffix(path, ".json"), "_baseline") {
			fmt.Fprintf(os.Stderr, "benchjson: %s: ok (%d entries, baseline)\n", path, len(rep.Benchmarks))
			continue
		}
		bp := baselinePath(path)
		if _, err := os.Stat(bp); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: ok (%d entries, no baseline)\n", path, len(rep.Benchmarks))
			continue
		}
		base, err := loadReport(bp)
		if err != nil {
			return err
		}
		names := make(map[string]bool, len(rep.Benchmarks))
		for _, e := range rep.Benchmarks {
			names[e.Name] = true
		}
		for _, e := range base.Benchmarks {
			if !names[e.Name] {
				return fmt.Errorf("%s: baseline benchmark %q missing from report (perf history drift)", path, e.Name)
			}
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s: ok (%d entries, %d baseline names covered)\n",
			path, len(rep.Benchmarks), len(base.Benchmarks))
	}
	return nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	bench := flag.String("bench", "", "benchmark pattern; when set, run `go test -bench` instead of reading stdin")
	pkg := flag.String("pkg", "./...", "comma-separated package patterns for -bench mode")
	benchtime := flag.String("benchtime", "", "passed through to go test (e.g. 1x, 3s)")
	cpuprofile := flag.String("cpuprofile", "", "passed through to go test; requires a single -pkg package")
	merge := flag.String("merge", "", "existing benchjson report whose entries are prepended to the output (e.g. a committed pre-optimization baseline)")
	check := flag.Bool("check", false, "validate the argument reports against the schema and their *_baseline.json files, then exit")
	flag.Parse()

	if *check {
		if err := runCheck(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -check:", err)
			os.Exit(1)
		}
		return
	}

	var in io.Reader = os.Stdin
	var cmd *exec.Cmd
	if *bench != "" {
		args := []string{"test", "-run", "xxx", "-bench", *bench, "-benchmem"}
		if *benchtime != "" {
			args = append(args, "-benchtime", *benchtime)
		}
		if *cpuprofile != "" {
			args = append(args, "-cpuprofile", *cpuprofile)
		}
		for _, p := range strings.Split(*pkg, ",") {
			if p = strings.TrimSpace(p); p != "" {
				args = append(args, p)
			}
		}
		cmd = exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: go test:", err)
			os.Exit(1)
		}
		in = pipe
	} else if *cpuprofile != "" {
		fmt.Fprintln(os.Stderr, "benchjson: -cpuprofile requires -bench (runner mode)")
		os.Exit(1)
	}

	var rep Report
	procs := 0
	cpu := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		// Echo the raw output so the human still sees the run.
		fmt.Fprintln(os.Stderr, line)
		if c, ok := strings.CutPrefix(line, "cpu: "); ok && cpu == "" {
			cpu = strings.TrimSpace(c)
		}
		if e, p, ok := parseLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, e)
			if procs == 0 {
				procs = p
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if cmd != nil {
		if err := cmd.Wait(); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: go test:", err)
			os.Exit(1)
		}
		if *cpuprofile != "" {
			fmt.Fprintln(os.Stderr, "benchjson: cpu profile at", *cpuprofile,
				"— inspect with `go tool pprof", *cpuprofile+"`")
		}
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found")
		os.Exit(1)
	}
	if *merge != "" {
		// A missing, malformed, or empty baseline would silently produce a
		// report without its pre-optimization reference — fail loudly.
		base, err := loadReport(*merge)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -merge:", err)
			os.Exit(1)
		}
		rep.Benchmarks = append(base.Benchmarks, rep.Benchmarks...)
	}
	if cpu == "" {
		cpu = "unknown"
	}
	rep.Host = hostInfo(procs, cpu)
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "benchjson: wrote", *out)
}
