package defense

import (
	"rowhammer/internal/data"
	"rowhammer/internal/nn"
)

// PWCConfig parameterizes piecewise weight clustering fine-tuning.
type PWCConfig struct {
	// Iterations and LR drive the fine-tuning SGD.
	Iterations int
	LR         float32
	BatchSize  int
}

// pwcLambda weighs the clustering penalty against the task loss.
const pwcLambda = 0.02

// DefaultPWCConfig returns workable PWC settings.
func DefaultPWCConfig() PWCConfig {
	return PWCConfig{Iterations: 40, LR: 0.01, BatchSize: 32}
}

// PWCFineTune retrains the model with the piecewise weight clustering
// penalty of He et al.: each weight is pulled toward the nearer of the
// two per-tensor cluster centers ±mean|w|. Clustered weight
// distributions leave less slack for single-bit perturbations, which
// strengthens the TA/ASR trade-off the attacker faces (§VI-A).
func PWCFineTune(m *nn.Model, train *data.Dataset, cfg PWCConfig) {
	opt := nn.NewSGD(m.Params(), cfg.LR, 0.9, 0)
	batches := train.Batches(cfg.BatchSize)
	for t := 0; t < cfg.Iterations; t++ {
		b := batches[t%len(batches)]
		m.ZeroGrad()
		out := m.Forward(b.Images, true)
		_, grad := nn.CrossEntropy(out, b.Labels, 1)
		m.Backward(grad)
		addPWCGrad(m, pwcLambda)
		opt.Step()
	}
}

// addPWCGrad accumulates the clustering penalty gradient
// λ·2·(w − c(w)) where c(w) is the nearer of ±mean|w| per tensor.
func addPWCGrad(m *nn.Model, lambda float32) {
	for _, p := range m.Params() {
		w := p.W.Data()
		if len(w) == 0 {
			continue
		}
		var sumAbs float64
		for _, v := range w {
			if v < 0 {
				sumAbs -= float64(v)
			} else {
				sumAbs += float64(v)
			}
		}
		center := float32(sumAbs / float64(len(w)))
		g := p.G.Data()
		for i, v := range w {
			c := center
			if v < 0 {
				c = -center
			}
			g[i] += 2 * lambda * (v - c)
		}
	}
}

// ClusteringScore measures how bimodal a model's weights are: the mean
// squared distance of weights to their nearer cluster center,
// normalized by the center magnitude. Lower is more clustered.
func ClusteringScore(m *nn.Model) float64 {
	var total, count float64
	for _, p := range m.Params() {
		w := p.W.Data()
		if len(w) == 0 {
			continue
		}
		var sumAbs float64
		for _, v := range w {
			if v < 0 {
				sumAbs -= float64(v)
			} else {
				sumAbs += float64(v)
			}
		}
		center := sumAbs / float64(len(w))
		if center == 0 {
			continue
		}
		for _, v := range w {
			c := center
			if v < 0 {
				c = -center
			}
			d := (float64(v) - c) / center
			total += d * d
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / count
}
