// Package splitmix is the repo's one splitmix64: the finalizer every
// counter-based stream (weak-cell layout, fault draws, side-channel
// noise, simulated arrivals) pushes its keys through, and the
// sequential stream built on it. All three functions inline, which the
// weak-cell generator on the templating path relies on.
package splitmix

// Gamma is splitmix64's additive constant (the 64-bit golden ratio).
const Gamma = 0x9E3779B97F4A7C15

// Mix is the splitmix64 finalizer: a bijective avalanche mix whose
// output on a counter sequence is statistically indistinguishable from
// uniform.
func Mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Stream is a splitmix64 generator; its value is the current state.
type Stream uint64

// Next advances the state by Gamma and returns its finalized value.
func (s *Stream) Next() uint64 {
	*s += Gamma
	return Mix(uint64(*s))
}

// Float64 returns a uniform draw in [0, 1) from the top 53 bits.
func (s *Stream) Float64() float64 { return float64(s.Next()>>11) / (1 << 53) }
