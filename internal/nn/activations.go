package nn

import "rowhammer/internal/tensor"

// ReLU is the rectified-linear activation.
type ReLU struct {
	outBuf *tensor.Tensor
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer. An eval-mode forward writes no layer state.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := r.output(x.Shape(), train)
	tensor.ReLU(out.Data(), x.Data())
	return out
}

// output returns the tensor a forward writes: in training mode the
// layer's grow-only buffer, which Backward masks on, otherwise a fresh
// tensor.
func (r *ReLU) output(shape []int, train bool) *tensor.Tensor {
	if !train {
		return tensor.New(shape...)
	}
	r.outBuf = tensor.Ensure(r.outBuf, shape...)
	return r.outBuf
}

// Backward implements Layer. It masks on the layer's own train-mode
// output, which is positive exactly where the input was (a NaN input
// maps to 0), so no separate mask is kept; every consumer of the
// output only reads it. The mask is applied to the incoming gradient
// in place — every producer upstream hands this layer a buffer it owns
// and overwrites on its next backward, so the fused zero-allocation
// form is safe (Tap snapshots its gradient precisely because of this).
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	tensor.ReLUBackward(grad.Data(), r.outBuf.Data())
	return grad
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Flatten reshapes (N, C, H, W) to (N, C*H*W).
type Flatten struct {
	lastShape []int
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.lastShape = append(f.lastShape[:0], x.Shape()...)
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.lastShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }
