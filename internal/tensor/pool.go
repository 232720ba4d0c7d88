package tensor

import (
	"math/bits"
	"sync"
)

// Buffer pool: size-classed free lists for the float32 scratch slices
// the kernels and layers churn through on every forward/backward pass
// (im2col column buffers, GEMM pack panels, gradient scratch). Training
// loops call these paths thousands of times with identical shapes, so
// recycling the buffers removes nearly all steady-state allocation from
// the hot path.
//
// Classes are powers of two; a Get rounds the request up to the next
// class so a returned buffer can always satisfy a later request of the
// same class. The free lists are bounded per class to cap retained
// memory.

const (
	poolMinBits     = 6  // smallest pooled capacity: 64 floats (256 B)
	poolMaxBits     = 24 // largest pooled capacity: 16M floats (64 MiB)
	poolMaxPerClass = 32
)

type poolClass struct {
	mu   sync.Mutex
	free [][]float32
}

var poolClasses [poolMaxBits + 1]poolClass

func poolClassFor(n int) int {
	c := bits.Len(uint(n - 1)) // ceil(log2(n)) for n ≥ 2
	if c < poolMinBits {
		c = poolMinBits
	}
	return c
}

// GetF32 returns a float32 scratch slice of length n, recycled from the
// pool when possible. The contents are unspecified (possibly stale) —
// callers that need zeros must use GetF32Zeroed. Requests beyond the
// largest size class are allocated fresh and are not pooled.
func GetF32(n int) []float32 {
	if n <= 0 {
		return nil
	}
	c := poolClassFor(n)
	if c > poolMaxBits {
		return make([]float32, n)
	}
	p := &poolClasses[c]
	p.mu.Lock()
	if last := len(p.free) - 1; last >= 0 {
		s := p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
		p.mu.Unlock()
		return s[:n]
	}
	p.mu.Unlock()
	return make([]float32, n, 1<<c)
}

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
func PutF32(s []float32) {
	c := cap(s)
	if c < 1<<poolMinBits || c&(c-1) != 0 {
		return
	}
	cls := bits.Len(uint(c)) - 1
	if cls > poolMaxBits {
		return
	}
	p := &poolClasses[cls]
	p.mu.Lock()
	if len(p.free) < poolMaxPerClass {
		p.free = append(p.free, s[:0])
	}
	p.mu.Unlock()
}

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
