package nn

import "rowhammer/internal/tensor"

// Residual wraps a main path and an optional shortcut path and adds
// their outputs, followed by a ReLU — the standard ResNet block
// epilogue. A nil shortcut means identity.
type Residual struct {
	Main     Layer
	Shortcut Layer // nil for identity

	// relu owns the block's output: the add and the activation run as
	// one pass into its buffer, and its Backward masks the gradient.
	relu *ReLU
}

var _ Layer = (*Residual)(nil)

// NewResidual builds a residual block. shortcut may be nil for the
// identity connection.
func NewResidual(main, shortcut Layer) *Residual {
	return &Residual{Main: main, Shortcut: shortcut, relu: NewReLU()}
}

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := r.Main.Forward(x, train)
	short := x
	if r.Shortcut != nil {
		short = r.Shortcut.Forward(x, train)
	}
	if !main.SameShape(short) {
		panic("nn: residual branch shapes differ")
	}
	out := r.relu.output(main.Shape(), train)
	tensor.AddReLU(out.Data(), main.Data(), short.Data())
	return out
}

// Backward implements Layer: the post-ReLU gradient flows through both
// branches and the input gradients add.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := r.relu.Backward(grad)
	gradIn := r.Main.Backward(g)
	if r.Shortcut != nil {
		gs := r.Shortcut.Backward(g)
		gradIn.AddScaled(gs, 1)
	} else {
		gradIn.AddScaled(g, 1)
	}
	return gradIn
}

// Params implements Layer; main-path parameters precede shortcut
// parameters, matching the PyTorch module order.
func (r *Residual) Params() []*Param {
	ps := r.Main.Params()
	if r.Shortcut != nil {
		ps = append(ps, r.Shortcut.Params()...)
	}
	return ps
}
