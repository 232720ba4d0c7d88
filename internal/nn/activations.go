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
	var out *tensor.Tensor
	if train {
		r.outBuf = tensor.Ensure(r.outBuf, x.Shape()...)
		out = r.outBuf
	} else {
		out = tensor.New(x.Shape()...)
	}
	od := out.Data()
	for i, v := range x.Data() {
		if v > 0 {
			od[i] = v
		} else {
			od[i] = 0
		}
	}
	return out
}

// Backward implements Layer. It masks on the layer's own train-mode
// output, which is positive exactly where the input was (a NaN input
// maps to 0), so no separate mask is kept; every consumer of the
// output only reads it. The mask is applied to the incoming gradient
// in place — every producer upstream hands this layer a buffer it owns
// and overwrites on its next backward, so the fused zero-allocation
// form is safe (Tap snapshots its gradient precisely because of this).
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gd := grad.Data()
	for i, v := range r.outBuf.Data()[:len(gd)] {
		if !(v > 0) {
			gd[i] = 0
		}
	}
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
