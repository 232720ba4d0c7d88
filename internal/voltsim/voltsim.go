// Package voltsim models the Plundervolt fault-injection experiment of
// the paper's Appendix F (a negative result): undervolting an Intel CPU
// beyond its stable operating point faults multiplication results, but
// only when the second operand exceeds 0xFFFF — and the operands of an
// 8-bit quantized DNN inference never do, so Plundervolt cannot inject
// backdoors into quantized models. The simulator reproduces exactly the
// operand-magnitude fault condition the paper (and the original
// Plundervolt work) reports.
package voltsim

import "rowhammer/internal/tensor"

// FaultThresholdMV is the undervolt depth (millivolts below nominal)
// beyond which the multiplier starts faulting.
const FaultThresholdMV = 150

// OperandFaultFloor is the smallest second-operand magnitude that can
// fault: the paper observed no faults whenever |b| ≤ 0xFFFF.
const OperandFaultFloor = 0xFFFF

// CPU is an undervolted core with a deterministic fault stream.
type CPU struct {
	// UndervoltMV is how far below nominal the core voltage sits.
	UndervoltMV int
	// FaultRate is the per-eligible-multiply fault probability once
	// undervolted past the threshold.
	FaultRate float64

	rng *tensor.RNG
}

// NewCPU builds a core at the given undervolt with a seeded fault
// stream.
func NewCPU(undervoltMV int, seed int64) *CPU {
	return &CPU{UndervoltMV: undervoltMV, FaultRate: 0.002, rng: tensor.NewRNG(seed)}
}

// Multiply computes a×b under the fault model. faulted reports whether
// a bit of the product was corrupted.
func (c *CPU) Multiply(a, b int64) (result int64, faulted bool) {
	result = a * b
	if c.UndervoltMV < FaultThresholdMV {
		return result, false
	}
	mag := b
	if mag < 0 {
		mag = -mag
	}
	if mag <= OperandFaultFloor {
		// The documented safe region: small second operands never
		// fault, regardless of undervolt depth.
		return result, false
	}
	if c.rng.Float64() >= c.FaultRate {
		return result, false
	}
	bit := uint(c.rng.Intn(32) + 16) // high product bits flip in practice
	return result ^ (1 << bit), true
}

// LoopMultiply reproduces the Plundervolt proof-of-concept: the same
// multiplication in a tight loop with constant operands. It returns the
// number of iterations whose result was faulty.
func (c *CPU) LoopMultiply(a, b int64, iters int) (faults int) {
	want := a * b
	for i := 0; i < iters; i++ {
		got, _ := c.Multiply(a, b)
		if got != want {
			faults++
		}
	}
	return faults
}

// QuantizedMACSweep drives every weight×activation product of an 8-bit
// quantized layer through the faulty multiplier and counts faults. Both
// operands are int8, far below the fault floor, so the count is always
// zero — the appendix's conclusion.
func QuantizedMACSweep(c *CPU, weights, activations []int8) (faults int) {
	for _, w := range weights {
		for _, a := range activations {
			if _, f := c.Multiply(int64(w), int64(a)); f {
				faults++
			}
		}
	}
	return faults
}
