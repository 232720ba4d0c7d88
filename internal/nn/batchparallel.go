package nn

import (
	"runtime"

	"rowhammer/internal/tensor"
)

// batchWorkers bounds batch-level parallelism in conv/batchnorm kernels.
// Kernels read it through batchWorkerCount, which clamps it to
// GOMAXPROCS.
var batchWorkers = runtime.NumCPU()

// SetBatchWorkers overrides batch-level parallelism; returns the previous
// value so callers can restore it.
func SetBatchWorkers(n int) int {
	prev := batchWorkers
	if n < 1 {
		n = 1
	}
	batchWorkers = n
	return prev
}

// batchWorkerCount returns batchWorkers clamped to GOMAXPROCS, the
// same bound tensor.MaxWorkers and Trainer.SetWorkers apply: fanning
// out past the schedulable CPUs only adds queueing. Results never
// depend on it: the conv reductions key their geometry on the batch
// size, and the batch-norm and pooling chunks are independent
// channels.
func batchWorkerCount() int {
	if g := runtime.GOMAXPROCS(0); batchWorkers > g {
		return g
	}
	return batchWorkers
}

// batchParallel partitions [0, n) across workers and runs fn per chunk
// on the tensor package's persistent worker pool (no goroutine spawn
// per call; pure inline execution when batchWorkers is 1). Each worker
// invocation is expected to allocate its own scratch buffers so no
// synchronization is needed during the chunk.
func batchParallel(n int, fn func(lo, hi int)) {
	tensor.ParallelChunks(n, batchWorkerCount(), fn)
}
