package tensor

import (
	"runtime"
	"sync"
)

// maxWorkers bounds the parallelism of the numeric kernels. It is a
// variable (not a constant) so tests can force single-threaded execution.
var maxWorkers = runtime.GOMAXPROCS(0)

// SetMaxWorkers overrides the kernel parallelism. Values below one are
// clamped to one. It returns the previous setting so callers can restore
// it.
func SetMaxWorkers(n int) int {
	prev := maxWorkers
	if n < 1 {
		n = 1
	}
	maxWorkers = n
	return prev
}

// MaxWorkers returns the current kernel parallelism bound, clamped to
// GOMAXPROCS: fanning work out to more workers than there are
// schedulable CPUs buys nothing and costs queueing and context-switch
// overhead (on a 1-vCPU box a 4-worker fan-out measurably regressed the
// trainer). Callers outside the package (the quantized engine, metric
// evaluation, the templating engine) use this to size their own
// ParallelChunks fan-out consistently with the kernels. Result
// determinism never depends on the clamp: deterministic reductions key
// their geometry on chunk counts, and the templating engine's
// experiments commute.
func MaxWorkers() int {
	if g := runtime.GOMAXPROCS(0); maxWorkers > g {
		return g
	}
	return maxWorkers
}

// The numeric kernels share one process-wide pool of persistent worker
// goroutines instead of spawning goroutines per call. The pool starts
// lazily on the first parallel invocation; on a single-CPU machine (or
// under SetMaxWorkers(1)) it is never started and every kernel runs
// inline on the caller's goroutine with zero scheduling overhead.
var (
	workersOnce sync.Once
	workCh      chan func()
)

func ensureWorkers() {
	workersOnce.Do(func() {
		n := runtime.NumCPU()
		if n > 64 {
			n = 64
		}
		workCh = make(chan func(), 4*n)
		for i := 0; i < n; i++ {
			go func() {
				for task := range workCh {
					task()
				}
			}()
		}
	})
}

// doneChPool recycles the per-call completion channels of the helping
// wait, so parallel invocations allocate nothing in steady state.
var doneChPool = sync.Pool{New: func() any { return make(chan struct{}, 256) }}

// helpUntilDone blocks until `submitted` completion signals have
// arrived on doneCh, executing other queued pool tasks while it waits.
// This cooperative draining is what makes nested parallel regions
// (a data-parallel trainer shard invoking parallel GEMM kernels)
// deadlock-free even when every pool worker is itself blocked in a
// nested wait: any waiter with queued work available will pick it up.
func helpUntilDone(doneCh chan struct{}, submitted int) {
	for completed := 0; completed < submitted; {
		select {
		case task := <-workCh:
			task()
		case <-doneCh:
			completed++
		}
	}
}

// ParallelChunks partitions [0, n) into up to `workers` contiguous
// chunks and runs fn(lo, hi) once per chunk on the persistent worker
// pool. The calling goroutine executes the first chunk itself and then
// waits for the rest, executing other queued pool tasks while it waits
// (see helpUntilDone). When the pool queue is full, excess chunks run
// inline on the caller, so ParallelChunks degrades gracefully to serial
// execution and never deadlocks, even in nested parallel regions.
func ParallelChunks(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	ensureWorkers()
	chunk := (n + workers - 1) / workers
	doneCh := doneChPool.Get().(chan struct{})
	submitted := 0
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		lo := lo
		task := func() { fn(lo, hi); doneCh <- struct{}{} }
		select {
		case workCh <- task:
			submitted++
		default:
			fn(lo, hi)
		}
	}
	fn(0, chunk)
	helpUntilDone(doneCh, submitted)
	doneChPool.Put(doneCh)
}

// ParallelChunksIndexed partitions [0, n) into exactly `chunks`
// near-equal contiguous ranges and runs fn(idx, lo, hi) once per range
// on up to `workers` pool workers. Unlike ParallelChunks, the chunk
// geometry depends only on n and chunks — never on the worker count —
// so a caller that writes per-chunk results into slot idx and reduces
// the slots in fixed index order gets bit-identical floating-point
// results at any parallelism level. This is the primitive behind the
// deterministic gradient reductions in internal/nn.
func ParallelChunksIndexed(n, chunks, workers int, fn func(idx, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunks > n {
		chunks = n
	}
	if chunks <= 1 {
		fn(0, 0, n)
		return
	}
	if workers > chunks {
		workers = chunks
	}
	runRange := func(clo, chi int) {
		for idx := clo; idx < chi; idx++ {
			lo := idx * n / chunks
			hi := (idx + 1) * n / chunks
			fn(idx, lo, hi)
		}
	}
	if workers <= 1 {
		runRange(0, chunks)
		return
	}
	ensureWorkers()
	per := (chunks + workers - 1) / workers
	doneCh := doneChPool.Get().(chan struct{})
	submitted := 0
	for clo := per; clo < chunks; clo += per {
		chi := clo + per
		if chi > chunks {
			chi = chunks
		}
		clo, chi := clo, chi
		task := func() { runRange(clo, chi); doneCh <- struct{}{} }
		select {
		case workCh <- task:
			submitted++
		default:
			runRange(clo, chi)
		}
	}
	runRange(0, per)
	helpUntilDone(doneCh, submitted)
	doneChPool.Put(doneCh)
}

// TreeReduceInto adds the `slots` equal-length gradient slices into dst
// (dst[i] += Σ_s slot_s[i]) using a fixed pairwise binary tree over the
// slot index, so the floating-point summation order is a function of
// the slot count alone — never of scheduling or worker count. The slot
// contents are destroyed (intermediate partial sums are written back
// into the lower slot of each pair).
func TreeReduceInto(dst []float32, slots [][]float32) {
	ns := len(slots)
	if ns == 0 {
		return
	}
	for stride := 1; stride < ns; stride *= 2 {
		for s := 0; s+stride < ns; s += 2 * stride {
			a, b := slots[s], slots[s+stride]
			for i := range a {
				a[i] += b[i]
			}
		}
	}
	root := slots[0]
	for i := range dst {
		dst[i] += root[i]
	}
}

// parallelFor runs fn(lo, hi) over disjoint chunks of [0, n) on up to
// MaxWorkers() pool workers and waits for completion. Small ranges run
// inline to avoid synchronization overhead.
func parallelFor(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := MaxWorkers()
	if workers <= 1 || n < 64 {
		fn(0, n)
		return
	}
	ParallelChunks(n, workers, fn)
}
