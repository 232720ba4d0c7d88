package serve

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rowhammer/internal/data"
	"rowhammer/internal/models"
	"rowhammer/internal/quant"
	"rowhammer/internal/tensor"
)

// engineFixture builds a small int8 engine plus a synthetic dataset.
func engineFixture(t testing.TB, arch string, seed int64) (*quant.Quantizer, *quant.QModel, *data.Dataset) {
	t.Helper()
	m, err := models.Build(models.Config{Arch: arch, Classes: 4, WidthMult: 0.25, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	q := quant.NewQuantizer(m)
	ds := data.Synthesize(data.SynthConfig{Classes: 4, Samples: 96, H: 32, W: 32, Noise: 0.05, Seed: seed + 1}, seed+2)
	return q, quant.NewQModel(q), ds
}

// TestServeMatchesDirectForward: with BatchMax 1 every request is its
// own batch, so each response must be byte-identical to a direct
// QModel.Forward of the same single-sample batch.
func TestServeMatchesDirectForward(t *testing.T) {
	_, qm, ds := engineFixture(t, "resnet20", 3)
	c, h, w := ds.ImageSize()
	srv, err := NewServer(qm, Config{Shape: []int{c, h, w}, BatchMax: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Degraded() {
		t.Fatal("resnet20 engine must serve on the concurrent path")
	}
	for i := 0; i < 8; i++ {
		img := ds.Image(i)
		res := srv.Submit(img)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		x := tensor.New(1, c, h, w)
		copy(x.Data(), img)
		direct := qm.Forward(x)
		if res.Pred != direct.ArgMaxRow(0) {
			t.Fatalf("sample %d: served pred %d, direct %d", i, res.Pred, direct.ArgMaxRow(0))
		}
		for j, v := range direct.Data() {
			if res.Logits[j] != v {
				t.Fatalf("sample %d logit %d: served %v, direct %v", i, j, res.Logits[j], v)
			}
		}
	}
}

// gatedEngine wraps an engine so that its first Forward blocks until
// release is closed; every Forward first adds its rows to entered.
type gatedEngine struct {
	Engine
	entered atomic.Int64
	once    sync.Once
	release chan struct{}
}

func (e *gatedEngine) Forward(x *tensor.Tensor) *tensor.Tensor {
	e.entered.Add(int64(x.Dim(0)))
	e.once.Do(func() { <-e.release })
	return e.Engine.Forward(x)
}
func (e *gatedEngine) ConcurrentSafe() bool { return true }

// waitHeld polls until each of n submitted requests is either queued or
// inside the engine.
func waitHeld(t *testing.T, srv *Server, entered *atomic.Int64, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(srv.queue)+int(entered.Load()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests held", len(srv.queue)+int(entered.Load()), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeCoalescedBatchExact: many concurrent submissions of the SAME
// sample coalesce into micro-batches; because the rows are identical,
// every batch composition yields the same logits per row, which must
// equal the direct single-sample forward. The first forward is held
// until all requests are queued, so the workers must then coalesce
// them: this covers the batch-assembly path (tensor packing, row
// fan-out) with no dependence on timing.
func TestServeCoalescedBatchExact(t *testing.T) {
	_, qm, ds := engineFixture(t, "resnet20", 5)
	c, h, w := ds.ImageSize()
	const requests = 48
	eng := &gatedEngine{Engine: qm, release: make(chan struct{})}
	srv, err := NewServer(eng, Config{Shape: []int{c, h, w}, BatchMax: 8, QueueDepth: requests, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	img := ds.Image(0)
	x := tensor.New(1, c, h, w)
	copy(x.Data(), img)
	want := append([]float32(nil), qm.Forward(x).Data()...)

	var wg sync.WaitGroup
	errs := make(chan string, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := srv.Submit(img)
			if res.Err != nil {
				errs <- res.Err.Error()
				return
			}
			for j := range want {
				if res.Logits[j] != want[j] {
					errs <- fmt.Sprintf("logit %d: served %v, want %v", j, res.Logits[j], want[j])
					return
				}
			}
		}()
	}
	waitHeld(t, srv, &eng.entered, requests)
	close(eng.release)
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
	snap := srv.Stats().Snapshot()
	if snap.Served != requests {
		t.Fatalf("served %d, want %d", snap.Served, requests)
	}
	if snap.MeanBatch <= 1 {
		t.Fatalf("mean batch %.2f — no coalescing happened", snap.MeanBatch)
	}
}

// slowEngine is a trivially concurrent stub whose forward blocks until
// released — it backs the shedding test.
type slowEngine struct {
	gate    chan struct{}
	entered atomic.Int64
}

func (e *slowEngine) Forward(x *tensor.Tensor) *tensor.Tensor {
	e.entered.Add(int64(x.Dim(0)))
	<-e.gate
	return tensor.New(x.Dim(0), 2)
}
func (e *slowEngine) ConcurrentSafe() bool { return true }

// TestServeShedding: with the queue full and the executor wedged,
// TrySubmit must shed instead of blocking, and the shed counter must
// account for it.
func TestServeShedding(t *testing.T) {
	eng := &slowEngine{gate: make(chan struct{})}
	srv, err := NewServer(eng, Config{Shape: []int{2}, BatchMax: 1, QueueDepth: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	img := []float32{1, 2}
	results := make(chan Result, 8)
	for i := 0; i < 2; i++ {
		go func() { results <- srv.Submit(img) }()
	}
	// Wait until the two background submissions hold both queue slots
	// (the executor is wedged on the gate, so they cannot drain).
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.slots) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	if r := srv.TrySubmit(img); r.Err != ErrOverloaded {
		t.Fatalf("TrySubmit over capacity: err = %v, want ErrOverloaded", r.Err)
	}
	if got := srv.Stats().shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	close(eng.gate)
	for i := 0; i < 2; i++ {
		if r := <-results; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	srv.Close()
}

// TestServeCloseDrains: Close while the engine is wedged and requests
// are queued must serve every one of them, none dropped, and refuse
// later submissions.
func TestServeCloseDrains(t *testing.T) {
	eng := &slowEngine{gate: make(chan struct{})}
	const requests = 8
	srv, err := NewServer(eng, Config{Shape: []int{2}, BatchMax: 3, QueueDepth: requests, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan Result, requests)
	for i := 0; i < requests; i++ {
		go func() { results <- srv.Submit([]float32{1, 2}) }()
	}
	waitHeld(t, srv, &eng.entered, requests)
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	for {
		srv.closeMu.RLock()
		c := srv.closed
		srv.closeMu.RUnlock()
		if c {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(eng.gate)
	<-closed
	for i := 0; i < requests; i++ {
		if r := <-results; r.Err != nil {
			t.Fatalf("queued request %d: %v", i, r.Err)
		}
	}
	if got := srv.Stats().Snapshot().Served; got != requests {
		t.Fatalf("served %d, want %d", got, requests)
	}
	if r := srv.Submit([]float32{1, 2}); r.Err != ErrClosed {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", r.Err)
	}
}

// panicEngine panics on its first Forward and serves afterwards.
type panicEngine struct {
	calls      atomic.Int64
	concurrent bool
}

func (e *panicEngine) Forward(x *tensor.Tensor) *tensor.Tensor {
	if e.calls.Add(1) == 1 {
		panic("wedged panel")
	}
	return tensor.New(x.Dim(0), 2)
}
func (e *panicEngine) ConcurrentSafe() bool { return e.concurrent }

// TestServeEnginePanic: a panicking forward fails only its own batch —
// every request in it gets an ErrEnginePanic result and gives back its
// slot — and the server keeps serving, on the concurrent path and in
// degraded mode, where the panic must not leave the executor lock held.
func TestServeEnginePanic(t *testing.T) {
	for _, concurrent := range []bool{true, false} {
		t.Run(fmt.Sprintf("concurrent=%v", concurrent), func(t *testing.T) {
			eng := &panicEngine{concurrent: concurrent}
			var logged atomic.Int64
			srv, err := NewServer(eng, Config{Shape: []int{2}, Workers: 2,
				Logf: func(f string, a ...any) {
					if strings.Contains(fmt.Sprintf(f, a...), "panicked") {
						logged.Add(1)
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if r := srv.Submit([]float32{1, 2}); !errors.Is(r.Err, ErrEnginePanic) {
				t.Fatalf("panicked batch: err = %v, want ErrEnginePanic", r.Err)
			}
			if n := len(srv.slots); n != 0 {
				t.Fatalf("%d slots still held after the panicked batch", n)
			}
			for i := 0; i < 4; i++ {
				if r := srv.Submit([]float32{1, 2}); r.Err != nil {
					t.Fatalf("request %d after the panic: %v", i, r.Err)
				}
			}
			if err := srv.Swap(func() {}); concurrent == (err == nil) {
				t.Fatalf("Swap after the panic: %v", err)
			}
			if logged.Load() == 0 {
				t.Fatal("the panic was not logged")
			}
		})
	}
}

// noSwapEngine is concurrent but has no hot-swap path.
type noSwapEngine struct{}

func (noSwapEngine) Forward(x *tensor.Tensor) *tensor.Tensor { return tensor.New(x.Dim(0), 2) }
func (noSwapEngine) ConcurrentSafe() bool                    { return true }

// TestServeSwapRequiresHotSwapPath: mutating a concurrent engine with
// no atomic publication path while serving would race, so Swap must
// refuse.
func TestServeSwapRequiresHotSwapPath(t *testing.T) {
	srv, err := NewServer(noSwapEngine{}, Config{Shape: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Swap(func() {}); err == nil {
		t.Fatal("Swap on a concurrent engine without Exclusive must fail")
	}
}

// TestServeDegradeFallback is the satellite check on the bin-resnet32
// fixture: its quant plan contains float-fallback layers, so the server
// must degrade to the serialized executor, log the warning, still serve
// byte-exact results, and still support (serialized) swaps.
func TestServeDegradeFallback(t *testing.T) {
	q, qm, ds := engineFixture(t, "bin-resnet32", 7)
	if qm.ConcurrentSafe() {
		t.Fatal("bin-resnet32 plan unexpectedly concurrency-safe")
	}
	c, h, w := ds.ImageSize()
	var logged []string
	srv, err := NewServer(qm, Config{
		Shape: []int{c, h, w}, BatchMax: 1, Workers: 4,
		Logf: func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !srv.Degraded() {
		t.Fatal("server did not degrade for a non-concurrency-safe plan")
	}
	found := false
	for _, l := range logged {
		if strings.Contains(l, "serialized executor") {
			found = true
		}
	}
	if !found {
		t.Fatalf("degrade warning not logged: %q", logged)
	}

	img := ds.Image(3)
	res := srv.Submit(img)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	x := tensor.New(1, c, h, w)
	copy(x.Data(), img)
	direct := qm.Forward(x)
	for j, v := range direct.Data() {
		if res.Logits[j] != v {
			t.Fatalf("degraded logit %d: served %v, direct %v", j, res.Logits[j], v)
		}
	}

	// Serialized hot-swap still works and is visible to the next request.
	if err := srv.Swap(func() { q.FlipBit(0, 7) }); err != nil {
		t.Fatal(err)
	}
	res2 := srv.Submit(img)
	direct2 := qm.Forward(x)
	for j, v := range direct2.Data() {
		if res2.Logits[j] != v {
			t.Fatalf("post-swap logit %d: served %v, direct %v", j, res2.Logits[j], v)
		}
	}
}

// TestSimDeterministic: identical configs produce identical results;
// the load model responds sanely to pressure (more offered load → no
// lower p99; a stall → no higher QPS).
func TestSimDeterministic(t *testing.T) {
	cfg := SimConfig{Seed: 11, Requests: 400, MeanArrivalNs: 120_000}
	a, b := Simulate(cfg), Simulate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sim not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Served+a.Shed != cfg.Requests {
		t.Fatalf("served %d + shed %d != offered %d", a.Served, a.Shed, cfg.Requests)
	}
	hot := cfg
	hot.MeanArrivalNs = 20_000
	h := Simulate(hot)
	if h.P99Ns < a.P99Ns {
		t.Fatalf("6× offered load lowered p99: %d → %d", a.P99Ns, h.P99Ns)
	}
	if h.MeanBatch < a.MeanBatch {
		t.Fatalf("pressure reduced batching: %.2f → %.2f", a.MeanBatch, h.MeanBatch)
	}
	stalled := cfg
	stalled.StallNs = 50_000_000
	s := Simulate(stalled)
	if s.QPS > a.QPS {
		t.Fatalf("stall raised QPS: %.1f → %.1f", a.QPS, s.QPS)
	}
	if s.P99Ns <= a.P99Ns {
		t.Fatalf("50ms stall did not move p99: %d → %d", a.P99Ns, s.P99Ns)
	}
}

// TestSimLoneArrival: a request that arrives at an idle executor is
// served at once, so its latency is one batch-1 cost and nothing more.
func TestSimLoneArrival(t *testing.T) {
	cfg := SimConfig{Seed: 3, Requests: 1, CostBaseNs: 250_000, CostSampleNs: 30_000}
	r := Simulate(cfg)
	want := cfg.CostBaseNs + cfg.CostSampleNs
	if r.Served != 1 || r.Batches != 1 || r.P50Ns != want || r.P99Ns != want {
		t.Fatalf("lone arrival: %+v, want 1 served in 1 batch at %d ns", r, want)
	}
}

// fireFixture builds a victim engine, a checker engine and the mapped
// weight-file states a synthetic two-round attack publishes.
func fireFixture(t testing.TB) (Fire, [][]byte) {
	t.Helper()
	q, qm, ds := engineFixture(t, "resnet20", 19)
	_, checker, _ := engineFixture(t, "resnet20", 23)
	clean := q.WeightFileBytes()
	round1 := append([]byte(nil), clean...)
	for i := 0; i < 40; i++ {
		round1[i*97%len(round1)] ^= 1 << 7
	}
	round2 := append([]byte(nil), round1...)
	for i := 0; i < 40; i++ {
		round2[(i*211+5)%len(round2)] ^= 1 << 6
	}
	f := Fire{
		Engine:  qm,
		Checker: checker,
		Eval:    ds,
		Trigger: data.NewSquareTrigger(3, 32, 32, 3),
		Target:  2,
		Cfg: FireConfig{
			Seed:          31,
			ReplayQueries: 64,
			Sim:           SimConfig{Requests: 200},
		},
	}
	return f, [][]byte{round1, round2}
}

// TestRunUnderFireDeterministicAcrossWorkers is the acceptance check:
// the ServeReport timeline must be byte-identical no matter how many
// real workers serve or how much live traffic flows, because every
// reported quantity is measured at attack-round barriers in virtual
// time or over deterministic evaluation streams.
func TestRunUnderFireDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers, clients int) *ServeReport {
		f, rounds := fireFixture(t)
		f.Serve = Config{BatchMax: 8, Workers: workers}
		f.Cfg.LiveClients = clients
		rep, _, err := RunUnderFire(f, func(apply func(int, []byte)) error {
			for i, m := range rounds {
				apply(i+1, m)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a := run(1, 0)
	b := run(4, 6)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("ServeReport differs across worker counts:\n%+v\n%+v", a, b)
	}
	if len(a.Windows) != 3 {
		t.Fatalf("windows = %d, want baseline + 2 rounds", len(a.Windows))
	}
	if a.Windows[1].FlipsApplied == 0 || a.Windows[2].FlipsApplied <= a.Windows[1].FlipsApplied {
		t.Fatalf("flip trajectory not monotone: %+v", a.Windows)
	}
	if a.Windows[2].EpochSeq <= a.Windows[1].EpochSeq || a.Windows[1].EpochSeq <= a.Windows[0].EpochSeq {
		t.Fatalf("epoch sequence not advancing per round: %+v", a.Windows)
	}
	if a.Windows[1].SimQPS >= a.Windows[0].SimQPS {
		t.Fatalf("hot-swap stall did not dent simulated QPS: %+v vs %+v", a.Windows[0], a.Windows[1])
	}
}
