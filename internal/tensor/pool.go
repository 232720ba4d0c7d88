package tensor

import (
	"math/bits"
	"sync"
)

// Buffer pools: size-classed free lists for the scratch slices the
// kernels and layers churn through on every pass — float32 im2col
// column buffers, GEMM pack panels and gradient scratch on the float
// path; int8 activation/column buffers, int16 pack panels and int32
// accumulators on the int8 inference engine. Training and evaluation
// loops call these paths thousands of times with identical shapes, so
// recycling the buffers removes nearly all steady-state allocation from
// the hot path. One generic pool (typedPool) serves every element type.
//
// Classes are powers of two in element count; a Get rounds the request
// up to the next class so a returned buffer can always satisfy a later
// request of the same class. The free lists are bounded per class to
// cap retained memory.

const (
	poolMinBits     = 6  // smallest pooled capacity: 64 elements (256 B of float32)
	poolMaxBits     = 24 // largest pooled capacity: 16M elements (64 MiB of float32)
	poolMaxPerClass = 32
)

func poolClassFor(n int) int {
	c := bits.Len(uint(n - 1)) // ceil(log2(n)) for n ≥ 2
	if c < poolMinBits {
		c = poolMinBits
	}
	return c
}

type typedPoolClass[T any] struct {
	mu   sync.Mutex
	free [][]T
}

type typedPool[T any] struct {
	classes [poolMaxBits + 1]typedPoolClass[T]
}

func (p *typedPool[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := poolClassFor(n)
	if c > poolMaxBits {
		return make([]T, n)
	}
	cl := &p.classes[c]
	cl.mu.Lock()
	if last := len(cl.free) - 1; last >= 0 {
		s := cl.free[last]
		cl.free[last] = nil
		cl.free = cl.free[:last]
		cl.mu.Unlock()
		return s[:n]
	}
	cl.mu.Unlock()
	return make([]T, n, 1<<c)
}

func (p *typedPool[T]) put(s []T) {
	c := cap(s)
	if c < 1<<poolMinBits || c&(c-1) != 0 {
		return
	}
	cls := bits.Len(uint(c)) - 1
	if cls > poolMaxBits {
		return
	}
	cl := &p.classes[cls]
	cl.mu.Lock()
	if len(cl.free) < poolMaxPerClass {
		cl.free = append(cl.free, s[:0])
	}
	cl.mu.Unlock()
}

var (
	f32Pool typedPool[float32]
	i8Pool  typedPool[int8]
	i16Pool typedPool[int16]
	i32Pool typedPool[int32]
)

// GetF32 returns a float32 scratch slice of length n, recycled from the
// pool when possible. The contents are unspecified (possibly stale) —
// callers that need zeros must use GetF32Zeroed. Requests beyond the
// largest size class are allocated fresh and are not pooled.
func GetF32(n int) []float32 { return f32Pool.get(n) }

// GetF32Zeroed returns a zero-filled scratch slice of length n from the
// pool.
func GetF32Zeroed(n int) []float32 {
	s := GetF32(n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// PutF32 returns a scratch slice obtained from GetF32 to the pool. The
// caller must not use the slice afterwards. Slices whose capacity is
// not an exact size class (i.e. not allocated by GetF32) are dropped,
// so PutF32 is safe to call on any slice.
func PutF32(s []float32) { f32Pool.put(s) }

// GetTensor returns a pooled tensor of the given shape with unspecified
// contents. Release with PutTensor.
func GetTensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: non-positive dimension in pooled shape")
		}
		n *= d
	}
	return &Tensor{data: GetF32(n), shape: append([]int(nil), shape...)}
}

// PutTensor recycles a tensor obtained from GetTensor. The tensor (and
// any views of its storage) must not be used afterwards.
func PutTensor(t *Tensor) {
	if t == nil {
		return
	}
	PutF32(t.data)
	t.data = nil
}

// GetI8 returns an int8 scratch slice of length n with unspecified
// contents, recycled from the pool when possible. Release with PutI8.
func GetI8(n int) []int8 { return i8Pool.get(n) }

// PutI8 returns a slice obtained from GetI8 to the pool.
func PutI8(s []int8) { i8Pool.put(s) }

// GetI16 returns an int16 scratch slice of length n with unspecified
// contents. Release with PutI16.
func GetI16(n int) []int16 { return i16Pool.get(n) }

// PutI16 returns a slice obtained from GetI16 to the pool.
func PutI16(s []int16) { i16Pool.put(s) }

// GetI32 returns an int32 scratch slice of length n with unspecified
// contents. Release with PutI32.
func GetI32(n int) []int32 { return i32Pool.get(n) }

// PutI32 returns a slice obtained from GetI32 to the pool.
func PutI32(s []int32) { i32Pool.put(s) }
