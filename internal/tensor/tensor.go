// Package tensor provides the dense float32 tensor type and the numeric
// kernels (parallel matrix multiply, im2col, elementwise operations,
// reductions) that the neural-network engine is built on.
//
// Tensors are row-major and dense. The package is deliberately small: it
// implements exactly the operations the backdoor-injection training loop
// (forward pass, weight gradients, input gradients) requires, with
// goroutine-parallel inner kernels so CPU-only training stays practical.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense, row-major float32 array with an explicit shape.
// The zero value is not usable; construct tensors with New or FromSlice.
type Tensor struct {
	data  []float32
	shape []int
}

// New allocates a zero-filled tensor with the given shape. Every
// dimension must be positive.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{data: make([]float32, n), shape: append([]int(nil), shape...)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elems)", len(data), shape, n))
	}
	return &Tensor{data: data, shape: append([]int(nil), shape...)}
}

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of the same storage with a new shape. The new
// shape must have the same element count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return &Tensor{data: t.data, shape: append([]int(nil), shape...)}
}

// Rebind repoints the tensor at data, keeping its shape. The length
// must match the shape's element count. It exists so hot loops can
// walk a tensor header across consecutive storage slices (one image of
// a batch at a time) without allocating a header per step.
func (t *Tensor) Rebind(data []float32) {
	if len(data) != len(t.data) {
		panic(fmt.Sprintf("tensor: Rebind length %d does not match shape %v", len(data), t.shape))
	}
	t.data = data
}

// Ensure returns a tensor of the given shape, reusing t's storage and
// header when possible: same total size just restamps the shape, a
// smaller request reslices, and only growth allocates. The contents are
// unspecified after a size change. It is the grow-only buffer idiom the
// layer forward/backward caches use — pass the previous buffer (nil on
// first use) and store the result.
func Ensure(t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	if t == nil || cap(t.data) < n {
		return New(shape...)
	}
	t.data = t.data[:n]
	if len(t.shape) == len(shape) {
		copy(t.shape, shape)
	} else {
		t.shape = append(t.shape[:0], shape...)
	}
	return t
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description for debugging.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 8 {
		fmt.Fprintf(&b, "%v", t.data)
	}
	return b.String()
}
