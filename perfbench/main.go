// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three workloads — a complete attack, a fleet sweep, or a victim that
// keeps serving while it is attacked — for a fixed wall time, checks the
// outputs, and prints one JSON result line. Per-layer numbers come from
// timing the benchmark's own calls into each layer's public functions;
// no program code is instrumented. README.md beside this file explains
// every workload and metric.
//
//	bash perfbench/run.sh --workload attack --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"rowhammer/internal/tensor"
)

// unit pairs a metric name with its unit. The lists below are the single
// source of the metric set; BENCHMARK.json mirrors them (a test checks).
type unit struct{ name, unit string }

// endToEnd are reported by every workload with tracing off.
var endToEnd = []unit{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_ms", "ms"},
}

// perLayer are reported by every workload with tracing on; a layer the
// workload does not run reads 0.
var perLayer = []unit{
	{"pretrain.train_s", "s"},
	{"pretrain.clone_ms", "ms"},
	{"core.offline_s", "s"},
	{"nn.fwdbwd_ms", "ms"},
	{"nn.fwdbwd_calls", "count"},
	{"quant.score_ms", "ms"},
	{"quant.score_calls", "count"},
	{"metrics.eval_ms", "ms"},
	{"quant.load_ms", "ms"},
	{"dram.module_ms", "ms"},
	{"core.online_s", "s"},
	{"core.online_self_ms", "ms"},
	{"profile.template_ms", "ms"},
	{"profile.plan_ms", "ms"},
	{"profile.retemplate_ms", "ms"},
	{"memsys.massage_ms", "ms"},
	{"dram.hammer_ms", "ms"},
	{"core.verify_ms", "ms"},
	{"campaign.run_s", "s"},
	{"campaign.cache_hit_ratio", "ratio"},
	{"campaign.peak_reserved_mb", "MB"},
	{"campaign.outside_online_s", "s"},
	{"profile.cold_template_ms", "ms"},
	{"profile.cold_template_total_s", "s"},
	{"core.retry_rounds", "count"},
	{"quant.fwd_b1_ms", "ms"},
	{"quant.fwd_b32_ms", "ms"},
	{"serve.low_p50_ms", "ms"},
	{"serve.low_p99_ms", "ms"},
	{"serve.high_p50_ms", "ms"},
	{"serve.high_p99_ms", "ms"},
	{"serve.storm_p50_ms", "ms"},
	{"serve.storm_p99_ms", "ms"},
	{"serve.mean_batch.low", "req/batch"},
	{"serve.mean_batch.high", "req/batch"},
	{"serve.mean_batch.storm", "req/batch"},
	{"serve.overhead_ms", "ms"},
	{"serve.shed.low", "count"},
	{"serve.shed.high", "count"},
	{"serve.shed.storm", "count"},
	{"quant.swap_us_p50", "us"},
	{"quant.swap_us_p99", "us"},
	{"quant.live_epochs", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.op_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_share", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	tr      *tracer // nil with --trace 0
}

// report is what a workload hands back to main.
type report struct {
	setup     time.Duration // median set-up time
	op        time.Duration // median operation time
	attempted int
	failed    int
	// problems lists failed correctness checks; empty means correct.
	problems []string
	// layers holds the per-layer metrics (traced runs).
	layers map[string]float64
	// meta is recorded with the result: worker counts and the like.
	meta map[string]any
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(options) (*report, error){
	"attack": runAttackWorkload,
	"fleet":  runFleetWorkload,
	"serve":  runServeWorkload,
}

func main() {
	workload := flag.String("workload", "", "attack, fleet or serve")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured wall time")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload attack|fleet|serve, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds}
	if *trace == 1 {
		opt.tr = newTracer()
	}
	rep, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}

	meta := runMeta(*workload, opt)
	for k, v := range rep.meta {
		meta[k] = v
	}
	meta["problems"] = rep.problems
	if opt.tr != nil {
		if err := opt.tr.write(".bench_build/trace", fmt.Sprintf("%s-seed%d.json", *workload, *seed), meta); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}

	metrics := map[string]map[string]any{}
	if opt.tr == nil {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: peak RSS: %v\n", err)
			os.Exit(1)
		}
		values := map[string]float64{
			"setup_s":     rep.setup.Seconds(),
			"peak_rss_mb": rss,
			"op_ms":       ms(rep.op),
		}
		for _, u := range endToEnd {
			metrics[u.name] = map[string]any{"value": values[u.name], "unit": u.unit}
		}
	} else {
		for _, u := range perLayer {
			metrics[u.name] = map[string]any{"value": rep.layers[u.name], "unit": u.unit}
		}
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"meta": meta}); err != nil {
		os.Exit(1)
	}
	if err := out.Encode(map[string]any{
		"correct":   len(rep.problems) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	}); err != nil {
		os.Exit(1)
	}
}

// runMeta records what a reader needs to reproduce the run.
func runMeta(workload string, opt options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":       workload,
		"seed":           opt.seed,
		"seconds":        opt.seconds,
		"trace":          opt.tr != nil,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"kernel_workers": tensor.MaxWorkers(),
		"go":             runtime.Version(),
		"commit":         commit,
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (the mean of the middle two for an
// even count).
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := sortedDurations(ds)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the nearest-rank q-quantile of a sorted slice, and
// whether at least ten samples lie beyond it (the rule for reporting a
// tail percentile).
func quantile(sorted []time.Duration, q float64) (time.Duration, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= 10
}

// repeatSetup runs a set-up step k times, each from a collected heap,
// and returns the median time with the last result; earlier results are
// released with drop.
func repeatSetup[T any](k int, setup func() (T, error), drop func(T)) (T, time.Duration, error) {
	var last T
	times := make([]time.Duration, 0, k)
	for i := 0; i < k; i++ {
		debug.FreeOSMemory()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start))
		if i > 0 && drop != nil {
			drop(last)
		}
		last = v
	}
	return last, median(times), nil
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// traceLayers reports the traced run's own operation time and what the
// spans it recorded cost.
func traceLayers(r *report, tr *tracer, timedWall time.Duration) {
	r.layers["trace.op_ms"] = ms(r.op)
	r.layers["trace.spans"] = float64(len(tr.spans))
	cost := spanCost()
	r.layers["trace.overhead_share"] = float64(cost) * float64(len(tr.spans)) / float64(timedWall)
	r.meta["span_cost_ns"] = cost.Nanoseconds()
}

// sortedDurations returns a sorted copy.
func sortedDurations(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
