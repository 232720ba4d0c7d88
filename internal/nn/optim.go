package nn

import "rowhammer/internal/tensor"

// Optimizer updates model parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update from the current gradients. Gradients are
	// not cleared; call Model.ZeroGrad before the next accumulation.
	Step()
}

// SGD is stochastic gradient descent with classical momentum and L2
// weight decay.
type SGD struct {
	params      []*Param
	lr          float32
	momentum    float32
	weightDecay float32
	velocity    []*tensor.Tensor
}

var _ Optimizer = (*SGD)(nil)

// NewSGD builds an SGD optimizer over params.
func NewSGD(params []*Param, lr, momentum, weightDecay float32) *SGD {
	vel := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		vel[i] = tensor.New(p.W.Shape()...)
	}
	return &SGD{params: params, lr: lr, momentum: momentum, weightDecay: weightDecay, velocity: vel}
}

// SetLR changes the learning rate (for schedules).
func (s *SGD) SetLR(lr float32) { s.lr = lr }

// Step implements Optimizer.
func (s *SGD) Step() {
	for i, p := range s.params {
		w, g, v := p.W.Data(), p.G.Data(), s.velocity[i].Data()
		for j := range w {
			grad := g[j] + s.weightDecay*w[j]
			v[j] = s.momentum*v[j] + grad
			w[j] -= s.lr * v[j]
		}
	}
}
