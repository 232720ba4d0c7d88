package nn

import "rowhammer/internal/tensor"

// batchParallel partitions [0, n) across up to tensor.MaxWorkers()
// workers and runs fn per chunk on the tensor package's persistent
// worker pool (no goroutine spawn per call; pure inline execution at
// one worker). Results never depend on the worker count: the conv
// reductions key their geometry on the batch size, and the batch-norm
// and pooling chunks are independent channels. Each worker invocation
// is expected to allocate its own scratch buffers so no
// synchronization is needed during the chunk.
func batchParallel(n int, fn func(lo, hi int)) {
	tensor.ParallelChunks(n, tensor.MaxWorkers(), fn)
}
