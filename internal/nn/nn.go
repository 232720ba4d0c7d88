// Package nn implements the minimal neural-network engine the
// backdoor-injection attack needs: layers with explicit forward and
// backward passes, cross-entropy loss, an SGD optimizer, and a model
// container that exposes parameters in their deterministic weight-file
// order (the order that matters for the memory-page constraints of the
// Rowhammer attack).
package nn

import (
	"fmt"

	"rowhammer/internal/tensor"
)

// Param is one trainable tensor together with its gradient accumulator.
type Param struct {
	// Name identifies the parameter in state-dict style, e.g.
	// "layer1.0.conv1.weight".
	Name string
	// W holds the current weight values.
	W *tensor.Tensor
	// G accumulates dLoss/dW; ZeroGrad clears it.
	G *tensor.Tensor
}

// NewParam allocates a parameter and a matching zeroed gradient.
func NewParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Shape()...)}
}

// Layer is a differentiable network stage. Forward consumes the previous
// activation and caches whatever Backward needs; Backward consumes
// dLoss/dOutput, accumulates parameter gradients, and returns
// dLoss/dInput.
type Layer interface {
	// Forward computes the layer output for x. When train is true the
	// layer may update training-time statistics (e.g. batch norm).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates the output gradient, accumulating into the
	// layer's parameter gradients, and returns the input gradient.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters in a fixed order.
	Params() []*Param
}

// Sequential chains layers; the output of each feeds the next.
type Sequential struct {
	layers []Layer
}

var _ Layer = (*Sequential)(nil)

// NewSequential builds a sequential container over the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{layers: layers}
}

// Append adds more layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) {
	s.layers = append(s.layers, layers...)
}

// Layers exposes the contained layers (read-only use).
func (s *Sequential) Layers() []Layer { return s.layers }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.layers) - 1; i >= 0; i-- {
		grad = s.layers[i].Backward(grad)
	}
	return grad
}

// Params implements Layer; parameters appear in layer order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Model wraps a root layer and gives whole-network conveniences: the
// flattened parameter list (in weight-file order), gradient clearing,
// and batched inference.
type Model struct {
	// Root is the network graph.
	Root Layer
	// Classes is the number of output classes.
	Classes int
	// InputShape is (C, H, W) for a single sample.
	InputShape [3]int
	// Arch names the architecture, e.g. "resnet20".
	Arch string

	params []*Param
}

// NewModel wraps root. The parameter list is captured once, fixing the
// weight-file order for the lifetime of the model.
func NewModel(arch string, root Layer, classes int, inputShape [3]int) *Model {
	return &Model{
		Root:       root,
		Classes:    classes,
		InputShape: inputShape,
		Arch:       arch,
		params:     root.Params(),
	}
}

// Params returns every trainable parameter in weight-file order.
func (m *Model) Params() []*Param { return m.params }

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += p.W.Len()
	}
	return n
}

// ZeroGrad clears every parameter gradient.
func (m *Model) ZeroGrad() {
	for _, p := range m.params {
		p.G.Zero()
	}
}

// Forward runs the network on a batch (N,C,H,W) and returns logits (N,K).
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.Root.Forward(x, train)
}

// Backward propagates the logits gradient through the network and
// returns the input gradient (N,C,H,W).
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return m.Root.Backward(grad)
}

// Predict returns the argmax class for every sample in the batch.
func (m *Model) Predict(x *tensor.Tensor) []int {
	logits := m.Forward(x, false)
	n := logits.Dim(0)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = logits.ArgMaxRow(i)
	}
	return out
}

// FlattenParams copies every parameter value into a single vector laid
// out in weight-file order.
func (m *Model) FlattenParams() []float32 {
	out := make([]float32, 0, m.NumParams())
	for _, p := range m.params {
		out = append(out, p.W.Data()...)
	}
	return out
}

// LoadFlatParams overwrites the model's parameters from a flat vector in
// weight-file order; the length must match exactly.
func (m *Model) LoadFlatParams(flat []float32) error {
	if len(flat) != m.NumParams() {
		return fmt.Errorf("nn: flat vector has %d values, model has %d parameters", len(flat), m.NumParams())
	}
	off := 0
	for _, p := range m.params {
		copy(p.W.Data(), flat[off:off+p.W.Len()])
		off += p.W.Len()
	}
	return nil
}
