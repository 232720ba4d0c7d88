package nn

import (
	"fmt"

	"rowhammer/internal/tensor"
)

// Cloner is implemented by layers that can produce a structural copy of
// themselves: identical architecture and parameter values, but fresh
// gradient accumulators and scratch buffers, sharing no mutable state
// with the original. Layer types defined outside this package (e.g. the
// binarized convolution in internal/models) implement it to opt into
// Model.Clone.
type Cloner interface {
	CloneLayer() Layer
}

// CloneLayerOf clones any known layer, panicking with the concrete type
// name when the layer does not support cloning. It exists so container
// layers in other packages can clone their children.
func CloneLayerOf(l Layer) Layer {
	if l == nil {
		return nil
	}
	if c, ok := l.(Cloner); ok {
		return c.CloneLayer()
	}
	panic(fmt.Sprintf("nn: layer type %T does not implement Cloner", l))
}

// Clone returns a deep copy of the parameter: same name and values,
// fresh zeroed gradient.
func (p *Param) Clone() *Param {
	if p == nil {
		return nil
	}
	return &Param{Name: p.Name, W: p.W.Clone(), G: tensor.New(p.W.Shape()...)}
}

// CloneLayer implements Cloner.
func (s *Sequential) CloneLayer() Layer {
	layers := make([]Layer, len(s.layers))
	for i, l := range s.layers {
		layers[i] = CloneLayerOf(l)
	}
	return NewSequential(layers...)
}

// CloneLayer implements Cloner.
func (c *Conv2D) CloneLayer() Layer {
	cp := &Conv2D{
		Weight: c.Weight.Clone(),
		Bias:   c.Bias.Clone(),
		inC:    c.inC, outC: c.outC,
		kh: c.kh, kw: c.kw,
		stride: c.stride, pad: c.pad,
	}
	return cp
}

// CloneLayer implements Cloner.
func (l *Linear) CloneLayer() Layer {
	return &Linear{
		Weight: l.Weight.Clone(),
		Bias:   l.Bias.Clone(),
		in:     l.in, out: l.out,
	}
}

// CloneLayer implements Cloner. Running statistics are copied by value
// and the Frozen flag is preserved, so a clone of a deployed (frozen)
// model behaves identically.
func (b *BatchNorm2D) CloneLayer() Layer {
	return &BatchNorm2D{
		Gamma:       b.Gamma.Clone(),
		Beta:        b.Beta.Clone(),
		RunningMean: append([]float32(nil), b.RunningMean...),
		RunningVar:  append([]float32(nil), b.RunningVar...),
		Frozen:      b.Frozen,
		channels:    b.channels,
		momentum:    b.momentum,
		eps:         b.eps,
	}
}

// CloneLayer implements Cloner.
func (r *ReLU) CloneLayer() Layer { return NewReLU() }

// CloneLayer implements Cloner.
func (f *Flatten) CloneLayer() Layer { return NewFlatten() }

// CloneLayer implements Cloner.
func (m *MaxPool2D) CloneLayer() Layer { return NewMaxPool2D(m.k, m.stride) }

// CloneLayer implements Cloner.
func (g *GlobalAvgPool) CloneLayer() Layer { return NewGlobalAvgPool() }

// CloneLayer implements Cloner.
func (r *Residual) CloneLayer() Layer {
	var shortcut Layer
	if r.Shortcut != nil {
		shortcut = CloneLayerOf(r.Shortcut)
	}
	return NewResidual(CloneLayerOf(r.Main), shortcut)
}

// CloneLayer implements Cloner. The clone starts with empty recordings.
func (t *Tap) CloneLayer() Layer { return NewTap() }

// Clone returns a structurally independent copy of the model: the same
// architecture with parameter values copied, fresh gradient and scratch
// buffers, and an identically ordered parameter list. It is how the
// trainer builds its replicas, and is also the safe way to snapshot a
// model before destructive weight surgery.
func (m *Model) Clone() *Model {
	return NewModel(m.Arch, CloneLayerOf(m.Root), m.Classes, m.InputShape)
}
