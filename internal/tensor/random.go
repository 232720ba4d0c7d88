package tensor

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source for weight initialization and
// synthetic data generation. Every consumer in this repository threads an
// explicit *RNG so runs are reproducible end to end.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{src: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform integer in [0, n).
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// NormFloat64 returns a standard normal sample.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// FillNormal fills t with N(mean, std²) samples.
func (r *RNG) FillNormal(t *Tensor, mean, std float64) {
	for i := range t.data {
		t.data[i] = float32(mean + std*r.src.NormFloat64())
	}
}

// FillUniform fills t with uniform samples in [lo, hi).
func (r *RNG) FillUniform(t *Tensor, lo, hi float64) {
	for i := range t.data {
		t.data[i] = float32(lo + (hi-lo)*r.src.Float64())
	}
}

// KaimingNormal applies He-style initialization for a weight tensor with
// the given fan-in, suitable for layers followed by ReLU.
func (r *RNG) KaimingNormal(t *Tensor, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	r.FillNormal(t, 0, std)
}
