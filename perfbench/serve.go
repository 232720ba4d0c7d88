package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"rowhammer/internal/data"
	"rowhammer/internal/models"
	"rowhammer/internal/quant"
	"rowhammer/internal/serve"
	"rowhammer/internal/tensor"
)

// The serve workload drives serve.Server over a seeded resnet20
// width-0.25 int8 QModel with open-loop traffic in three phases. The
// engine's cost does not depend on weight values, so the model is
// untrained. Both rates are fixed numbers: a rate derived at run time
// would move with the code and hide gains.
const (
	serveLowRate  = 200 // req/s: batches hold one request
	serveHighRate = 800 // req/s: batches coalesce, no backlog grows
	serveBatchMax = 32
	serveSwapGap  = 5 * time.Millisecond // storm writer interval
	servePool     = 256                  // distinct request images
	// serveWarm is the start of every phase that is sent but not
	// measured: a rate change leaves a transient backlog behind.
	serveWarm = 500 * time.Millisecond
	// serveLateLimit marks a run invalid when the generator's p99
	// lateness against its schedule exceeds it.
	serveLateLimit = 25 * time.Millisecond
)

// servePhases splits the measured time. The storm runs at the low rate:
// at the high rate the p50 moved by up to 2x from run to run on a shared
// 2-vCPU host, because queueing amplifies every stall of the machine;
// at the low rate it repeats, so the hot-swap writer's cost on reads
// stays visible against the low phase.
var servePhases = []struct {
	name  string
	rate  float64
	share float64
	storm bool
}{
	{"low", serveLowRate, 0.4, false},
	{"high", serveHighRate, 0.2, false},
	{"storm", serveLowRate, 0.4, true},
}

// serveFixture is the served engine and its inputs.
type serveFixture struct {
	q      *quant.Quantizer
	qm     *quant.QModel
	srv    *serve.Server
	images *data.Dataset
	ref    *tensor.Tensor // fixed batch for the before/after forward check
}

func newServeFixture(seed int64, workers int) (*serveFixture, error) {
	m, err := models.Build(models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: seed})
	if err != nil {
		return nil, err
	}
	f := &serveFixture{q: quant.NewQuantizer(m)}
	f.qm = quant.NewQModel(f.q)
	f.images = data.Synthesize(data.SynthCIFAR(servePool, seed), seed+1)
	f.ref = f.images.Head(8).Images
	c, h, w := f.images.ImageSize()
	f.srv, err = serve.NewServer(f.qm, serve.Config{Shape: []int{c, h, w}, BatchMax: serveBatchMax, Workers: workers})
	if err != nil {
		return nil, err
	}
	// Warm-up: a few full batches so lazy packing and pools are ready.
	var wg sync.WaitGroup
	for i := 0; i < 4*serveBatchMax; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.srv.Submit(f.images.Image(i % servePool))
		}(i)
	}
	wg.Wait()
	return f, nil
}

// float32Bytes is the exact byte form of a float slice.
func float32Bytes(v []float32) []byte {
	var b bytes.Buffer
	_ = binary.Write(&b, binary.LittleEndian, v)
	return b.Bytes()
}

// cftFlips is a CFT+BR-shaped flip set over the model's weights: one
// single-bit flip per group of seven pages, at least three.
func cftFlips(q *quant.Quantizer, rng *rand.Rand) [][2]int {
	pages := q.NumPages()
	n := pages / 7
	if n < 3 {
		n = 3
	}
	group := (q.NumWeights() + n - 1) / n
	flips := make([][2]int, 0, n)
	for lo := 0; lo < q.NumWeights(); lo += group {
		hi := lo + group
		if hi > q.NumWeights() {
			hi = q.NumWeights()
		}
		flips = append(flips, [2]int{lo + rng.Intn(hi-lo), rng.Intn(8)})
	}
	return flips
}

// phaseStats is one phase's outcome.
type phaseStats struct {
	lat     []time.Duration // sorted, served requests only
	late    []time.Duration // generator lateness per request
	shed    int
	errs    int
	served  int64
	batches int64
	swaps   []time.Duration
}

// runPhase sends open-loop traffic at rate for d from one generator
// goroutine, with seeded exponential gaps; each request's latency runs
// from its scheduled send time. Requests due in the first serveWarm of
// the phase are sent but not measured. With storm set, a writer toggles
// the flip set through Server.Swap every serveSwapGap, an even number
// of times in total.
func runPhase(f *serveFixture, rate float64, d time.Duration, storm bool, flips [][2]int, rng *rand.Rand, tr *tracer, opBase int) *phaseStats {
	var before serve.LiveSnapshot
	st := &phaseStats{}

	var writer sync.WaitGroup
	if storm {
		n := 2 * int(d/(2*serveSwapGap))
		st.swaps = make([]time.Duration, n)
		writer.Add(1)
		go func() {
			defer writer.Done()
			start := time.Now()
			for i := 0; i < n; i++ {
				time.Sleep(time.Until(start.Add(time.Duration(i) * serveSwapGap)))
				t0 := time.Now()
				err := f.srv.Swap(func() {
					for _, fl := range flips {
						f.q.FlipBit(fl[0], uint(fl[1]))
					}
				})
				t1 := time.Now()
				st.swaps[i] = t1.Sub(t0)
				tr.interval("quant.swap", i, -1, t0, t1)
				if err != nil {
					st.swaps[i] = -1
				}
			}
		}()
	}

	var (
		mu   sync.Mutex
		reqs sync.WaitGroup
	)
	start := time.Now()
	due := start
	for i := 0; ; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) >= d {
			break
		}
		time.Sleep(time.Until(due))
		measured := due.Sub(start) >= serveWarm
		if measured {
			if st.late == nil {
				before = f.srv.Stats().Snapshot()
			}
			st.late = append(st.late, time.Since(due))
		}
		img := f.images.Image(rng.Intn(servePool))
		reqs.Add(1)
		go func(op int, due time.Time) {
			defer reqs.Done()
			res := f.srv.TrySubmit(img)
			done := time.Now()
			if !measured {
				return
			}
			tr.interval("serve.request", op, -1, due, done)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case res.Err == serve.ErrOverloaded:
				st.shed++
			case res.Err != nil:
				st.errs++
			default:
				st.lat = append(st.lat, done.Sub(due))
			}
		}(opBase+i, due)
	}
	reqs.Wait()
	writer.Wait()
	after := f.srv.Stats().Snapshot()
	st.served, st.batches = after.Served-before.Served, after.Batches-before.Batches
	st.lat = sortedDurations(st.lat)
	return st
}

func runServeWorkload(opt options) (*report, error) {
	r := &report{layers: map[string]float64{}}
	tr := opt.tr
	workers := runtime.NumCPU()

	f, setup, err := repeatSetup(9, func() (*serveFixture, error) {
		return newServeFixture(opt.seed, workers)
	}, func(f *serveFixture) { f.srv.Close() })
	if err != nil {
		return nil, err
	}
	r.setup = setup
	refBefore := float32Bytes(f.qm.Forward(f.ref).Data())
	rng := rand.New(rand.NewSource(opt.seed))
	flips := cftFlips(f.q, rng)

	stats := map[string]*phaseStats{}
	var late []time.Duration
	timedStart := time.Now()
	for pi, ph := range servePhases {
		d := time.Duration(ph.share * opt.seconds * float64(time.Second))
		debug.FreeOSMemory() // every phase starts from a collected heap
		st := runPhase(f, ph.rate, d, ph.storm, flips, rng, tr, pi<<24)
		stats[ph.name] = st
		late = append(late, st.late...)
		r.attempted += len(st.late)
		r.failed += st.shed + st.errs
		p50, _ := quantile(st.lat, 0.5)
		fmt.Fprintf(os.Stderr, "phase %s: %d requests, p50 %.2f ms, mean batch %.2f, shed %d\n",
			ph.name, len(st.late), ms(p50), float64(st.served)/float64(max(st.batches, 1)), st.shed)
	}
	timedWall := time.Since(timedStart)
	f.srv.Close()

	// op_ms is the p50 over every measured request at the low rate, half
	// of them under the flip storm: pooling the two phases damps the
	// run-to-run spread the storm phase shows alone.
	storm := stats["storm"]
	r.op, _ = quantile(sortedDurations(append(append([]time.Duration(nil), stats["low"].lat...), storm.lat...)), 0.5)
	lateP99, _ := quantile(sortedDurations(late), 0.99)
	r.check(lateP99 <= serveLateLimit, "load generator p99 lateness %.2f ms exceeds %.0f ms: run invalid", ms(lateP99), ms(serveLateLimit))
	for name, st := range stats {
		r.check(st.errs == 0, "phase %s: %d requests failed", name, st.errs)
	}
	for i, s := range storm.swaps {
		if s < 0 {
			r.check(false, "swap %d failed", i)
			break
		}
	}
	// A drained engine holds exactly one epoch; more is a leak. The
	// gauge can also read 0: acquireEpoch may pin an epoch the writer has
	// just retired, and its retry retires it a second time. That race
	// corrupts only the gauge, so it is reported, not failed.
	live := f.qm.LiveEpochs()
	r.check(live <= 1, "LiveEpochs() = %d after Close: epochs leaked", live)
	if live != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: LiveEpochs() = %d after Close (gauge double-retire race), want 1\n", live)
	}
	r.check(bytes.Equal(float32Bytes(f.qm.Forward(f.ref).Data()), refBefore), "forward after the run differs from the forward before it")

	r.meta = map[string]any{
		"serve_workers":    workers,
		"batch_max":        serveBatchMax,
		"low_rate":         serveLowRate,
		"high_rate":        serveHighRate,
		"swap_gap_ms":      ms(serveSwapGap),
		"swaps":            len(storm.swaps),
		"loadgen_late_p99": ms(lateP99),
		"late_limit_ms":    ms(serveLateLimit),
		"flips":            len(flips),
		"live_epochs":      live,
	}
	if tr == nil {
		return r, nil
	}

	for _, ph := range servePhases {
		st := stats[ph.name]
		// A p99 is reported only where ten samples lie beyond it.
		p50, _ := quantile(st.lat, 0.5)
		p99, ok := quantile(st.lat, 0.99)
		r.layers["serve."+ph.name+"_p50_ms"] = ms(p50)
		if ok {
			r.layers["serve."+ph.name+"_p99_ms"] = ms(p99)
		}
		if st.batches > 0 {
			r.layers["serve.mean_batch."+ph.name] = float64(st.served) / float64(st.batches)
		}
		r.layers["serve.shed."+ph.name] = float64(st.shed)
	}
	swaps := sortedDurations(storm.swaps)
	sp50, _ := quantile(swaps, 0.5)
	sp99, ok := quantile(swaps, 0.99)
	r.layers["quant.swap_us_p50"] = float64(sp50) / float64(time.Microsecond)
	if ok {
		r.layers["quant.swap_us_p99"] = float64(sp99) / float64(time.Microsecond)
	}
	r.layers["quant.live_epochs"] = float64(live)
	r.layers["loadgen.late_p99_ms"] = ms(lateP99)

	// Probes: the engine alone at batch 1 and batch 32.
	b1 := probeForward(f.qm, f.images.Head(1).Images, 200)
	b32 := probeForward(f.qm, f.images.Head(serveBatchMax).Images, 40)
	r.layers["quant.fwd_b1_ms"] = ms(b1)
	r.layers["quant.fwd_b32_ms"] = ms(b32)
	r.layers["serve.overhead_ms"] = r.layers["serve.low_p50_ms"] - ms(b1)
	traceLayers(r, tr, timedWall)
	return r, nil
}

// probeForward returns the median QModel.Forward time over n calls.
func probeForward(qm *quant.QModel, x *tensor.Tensor, n int) time.Duration {
	qm.Forward(x)
	times := make([]time.Duration, n)
	for i := range times {
		t0 := time.Now()
		qm.Forward(x)
		times[i] = time.Since(t0)
	}
	return median(times)
}
