// Package serve is the victim side of the online attack: a
// high-throughput batched inference service over the int8 deployment
// engine that keeps answering queries while Rowhammer flips its weights
// in memory. It provides work-conserving micro-batching (a free
// executor takes whatever is queued, up to a size cap, and never waits
// for more), admission control (FIFO slot semaphore with load
// shedding), per-request latency accounting, and a hot-swap seam
// through which the attack publishes corrupted weights without ever
// letting a reader observe a torn state.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rowhammer/internal/tensor"
)

// Engine is the inference engine the server fronts: a batch in, logits
// (N, K) out. *quant.QModel is the deployment engine.
type Engine interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
}

// ConcurrentEngine is optionally implemented by engines that may run
// Forward from several goroutines at once (quant plans without float
// fallback layers). Engines that do not implement it — or answer false
// — are served through a serialized executor instead.
type ConcurrentEngine interface {
	Engine
	ConcurrentSafe() bool
}

// HotSwapEngine is optionally implemented by engines with a
// torn-read-safe mutation path: Exclusive publishes the mutation as an
// atomic snapshot visible to every subsequent Forward (quant's epoch
// engine). Without it, Swap falls back to the serialized executor's
// mutex, which is only safe in degraded (serialized) mode.
type HotSwapEngine interface {
	Engine
	Exclusive(fn func())
}

// ErrOverloaded is returned by TrySubmit when admission control sheds
// the request: every queue slot is taken and the caller asked not to
// wait.
var ErrOverloaded = errors.New("serve: overloaded, request shed")

// ErrClosed is returned for submissions after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrEnginePanic is wrapped into the Result of every request whose
// batch panicked in Engine.Forward; the server keeps serving.
var ErrEnginePanic = errors.New("serve: engine panicked")

// Config parameterizes the server.
type Config struct {
	// Shape is the per-sample input shape, e.g. [3, 32, 32]. Required.
	Shape []int
	// BatchMax is the micro-batch size cap (default 32). A free worker
	// runs the oldest queued request together with every request queued
	// behind it, up to BatchMax; it never waits for more to arrive.
	BatchMax int
	// QueueDepth is the admission cap: the number of requests that may
	// be queued or in flight at once (default 4×BatchMax). TrySubmit
	// sheds beyond it; Submit blocks FIFO.
	QueueDepth int
	// Workers is the number of executor goroutines (default 1). Forced
	// to 1 when the engine is not concurrency-safe.
	Workers int
	// Logf receives operational warnings (default: discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.BatchMax <= 0 {
		c.BatchMax = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.BatchMax
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Result is one served inference.
type Result struct {
	// Pred is the argmax class.
	Pred int
	// Logits is the sample's logit row, exact with respect to the
	// coalesced batch the engine actually ran (dynamic activation
	// quantization makes a sample's int8 logits a function of its
	// batchmates — identical to a direct Forward of the same batch).
	Logits []float32
	// Err is ErrOverloaded/ErrClosed when the request was not served,
	// and wraps ErrEnginePanic when its batch's forward panicked.
	Err error
}

type request struct {
	img []float32
	enq time.Time
	out chan Result
}

// Server is the batched inference service.
type Server struct {
	eng       Engine
	cfg       Config
	sampleLen int
	degraded  bool

	// slots is the FIFO admission semaphore: one token per queued or
	// in-flight request. Goroutines blocked acquiring a token queue in
	// runtime FIFO order, like campaign's arena byte semaphore.
	slots chan struct{}

	// queue holds admitted requests in arrival order; the workers pull
	// their batches from it directly.
	queue chan *request

	// closeMu guards the queue against send-after-close; submissions
	// hold it shared, Close exclusively.
	closeMu sync.RWMutex
	closed  bool

	// serialMu serializes the executor in degraded mode, and doubles as
	// the Swap fallback lock for engines without a hot-swap path.
	serialMu sync.Mutex

	stats LiveStats
	wg    sync.WaitGroup
}

// NewServer builds and starts the service. Engines that do not declare
// themselves concurrency-safe are degraded to a single serialized
// executor with a logged warning — correctness over throughput.
func NewServer(eng Engine, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shape) == 0 {
		return nil, fmt.Errorf("serve: Config.Shape is required")
	}
	sampleLen := 1
	for _, d := range cfg.Shape {
		if d <= 0 {
			return nil, fmt.Errorf("serve: invalid sample shape %v", cfg.Shape)
		}
		sampleLen *= d
	}
	s := &Server{
		eng:       eng,
		cfg:       cfg,
		sampleLen: sampleLen,
		slots:     make(chan struct{}, cfg.QueueDepth),
		queue:     make(chan *request, cfg.QueueDepth),
	}
	ce, ok := eng.(ConcurrentEngine)
	if !ok || !ce.ConcurrentSafe() {
		s.degraded = true
		s.cfg.Workers = 1
		cfg.Logf("serve: engine is not concurrency-safe (float-fallback layers); degrading to serialized executor")
	}
	s.stats.start = time.Now()
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Degraded reports whether the server runs the serialized fallback
// executor.
func (s *Server) Degraded() bool { return s.degraded }

// Stats returns the live traffic counters.
func (s *Server) Stats() *LiveStats { return &s.stats }

// Submit serves one sample, blocking FIFO behind admission control
// until a queue slot frees. img must hold exactly one sample in
// Config.Shape layout.
func (s *Server) Submit(img []float32) Result {
	s.slots <- struct{}{}
	return s.enqueue(img)
}

// TrySubmit serves one sample or sheds it immediately when the queue
// is at capacity.
func (s *Server) TrySubmit(img []float32) Result {
	select {
	case s.slots <- struct{}{}:
	default:
		s.stats.shed.Add(1)
		return Result{Err: ErrOverloaded}
	}
	return s.enqueue(img)
}

func (s *Server) enqueue(img []float32) Result {
	if len(img) != s.sampleLen {
		<-s.slots
		return Result{Err: fmt.Errorf("serve: sample has %d values, want %d", len(img), s.sampleLen)}
	}
	r := &request{img: img, enq: time.Now(), out: make(chan Result, 1)}
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		<-s.slots
		return Result{Err: ErrClosed}
	}
	s.queue <- r // cannot block: queue capacity == slot capacity
	s.closeMu.RUnlock()
	return <-r.out
}

// worker is one executor. It blocks for the oldest queued request,
// yields once so that submitters already runnable can enqueue, then
// takes every request queued behind it without waiting, up to BatchMax.
// Under load requests pile up while the workers are busy, so batches
// grow with no timer. After Close it serves what is buffered and exits.
func (s *Server) worker() {
	defer s.wg.Done()
	batch := make([]*request, 0, s.cfg.BatchMax)
	for first := range s.queue {
		batch = append(batch[:0], first)
		runtime.Gosched()
	fill:
		for len(batch) < s.cfg.BatchMax {
			select {
			case r, ok := <-s.queue:
				if !ok {
					break fill
				}
				batch = append(batch, r)
			default:
				break fill
			}
		}
		s.runBatch(batch)
	}
}

// runBatch coalesces the requests into one tensor, runs the engine
// once, and fans the rows back out. A panicking forward fails only this
// batch: each of its requests gets an ErrEnginePanic result.
func (s *Server) runBatch(batch []*request) {
	n := len(batch)
	shape := append([]int{n}, s.cfg.Shape...)
	x := tensor.New(shape...)
	d := x.Data()
	for i, r := range batch {
		copy(d[i*s.sampleLen:(i+1)*s.sampleLen], r.img)
	}
	logits, err := s.forward(x)
	done := time.Now()
	s.stats.recordBatch()
	for i, r := range batch {
		res := Result{Err: err}
		if err == nil {
			k := logits.Dim(1)
			res.Pred = logits.ArgMaxRow(i)
			res.Logits = make([]float32, k)
			copy(res.Logits, logits.Data()[i*k:(i+1)*k])
			s.stats.record(done.Sub(r.enq))
		}
		// The slot goes back before the reply, so once Submit returns
		// its request holds no slot.
		<-s.slots
		r.out <- res
	}
}

// forward runs the engine, recovering a panic into an error. In
// degraded mode it holds serialMu; on the concurrent path it takes no
// lock at all — the epoch engine's reader pin is two atomic ops.
func (s *Server) forward(x *tensor.Tensor) (logits *tensor.Tensor, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrEnginePanic, p)
			s.cfg.Logf("serve: %v; failing a batch of %d", err, x.Dim(0))
		}
	}()
	if s.degraded {
		s.serialMu.Lock()
		defer s.serialMu.Unlock()
	}
	return s.eng.Forward(x), nil
}

// Swap runs fn — a weight mutation — so that no in-flight or future
// forward observes a torn state. Engines with a hot-swap path publish
// through it (readers keep running, lock-free); in degraded mode the
// mutation serializes against the executor. A concurrent engine
// without a hot-swap path cannot be mutated safely while serving, so
// Swap refuses rather than race.
func (s *Server) Swap(fn func()) error {
	if hs, ok := s.eng.(HotSwapEngine); ok && !s.degraded {
		hs.Exclusive(fn)
		return nil
	}
	if !s.degraded {
		return fmt.Errorf("serve: engine has no hot-swap path; cannot mutate while serving")
	}
	s.serialMu.Lock()
	fn()
	s.serialMu.Unlock()
	return nil
}

// Close drains queued requests (they are served, not dropped) and stops
// the workers. Submissions racing with Close may get ErrClosed.
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.closeMu.Unlock()
	s.wg.Wait()
}
