// Package quant implements the paper's deployment-time weight
// representation: TensorRT-style symmetric 8-bit quantization
// (W_q = round(W_fp/Δw), Δw = max|W_fp|/(2^(Nq−1)−1)), two's-complement
// storage, the page-aligned weight-file view the online attack targets,
// and the Bit Reduction operator of Algorithm 1 step 4.
package quant

import (
	"math"
	"math/bits"

	"rowhammer/internal/nn"
)

// PageSize is the memory-page granularity of the attack (4 KB pages,
// one int8 parameter per byte).
const PageSize = 4096

// qmax is the largest representable magnitude for 8-bit symmetric
// quantization: 2^(8−1)−1.
const qmax = 127

// Quantizer binds a model to its int8 deployment form. After
// construction the model's float weights are snapped onto the
// quantization grid, and the int8 codes (in weight-file order) are the
// ground truth the online attack flips bits in.
type Quantizer struct {
	model   *nn.Model
	scales  []float32 // one Δw per parameter tensor
	codes   []int8    // flat codes in weight-file order
	offsets []int     // start offset of each parameter tensor in codes

	// listeners are notified when codes change: with the parameter-
	// tensor index for a single-weight change, or AllParams for a bulk
	// rewrite. The quantized inference engine registers here so a
	// FlipBit invalidates only the packed panels of the touched tensor.
	listeners []func(pi int)

	// fileBuf backs WeightFileBytes across calls (the offline constraint
	// loop serializes the file repeatedly).
	fileBuf []byte
}

// AllParams is the listener argument meaning "every parameter tensor
// changed" (bulk operations: Requantize, LoadCodes, LoadWeightFileBytes).
const AllParams = -1

// OnCodesChanged registers fn to run after every code mutation, with
// the affected parameter-tensor index or AllParams. Registration is not
// synchronized with mutations — register before sharing the quantizer
// across goroutines.
func (q *Quantizer) OnCodesChanged(fn func(pi int)) {
	q.listeners = append(q.listeners, fn)
}

func (q *Quantizer) notify(pi int) {
	for _, fn := range q.listeners {
		fn(pi)
	}
}

// NewQuantizer quantizes the model's current weights. The per-tensor
// scales are computed once and remain fixed for the lifetime of the
// quantizer — the attack perturbs codes on the original grid.
func NewQuantizer(m *nn.Model) *Quantizer {
	params := m.Params()
	q := &Quantizer{
		model:   m,
		scales:  make([]float32, len(params)),
		codes:   make([]int8, m.NumParams()),
		offsets: make([]int, len(params)),
	}
	off := 0
	for i, p := range params {
		q.offsets[i] = off
		maxAbs := p.W.MaxAbs()
		if maxAbs == 0 {
			maxAbs = 1
		}
		q.scales[i] = maxAbs / qmax
		off += p.W.Len()
	}
	q.Requantize()
	return q
}

// Model returns the bound model.
func (q *Quantizer) Model() *nn.Model { return q.model }

// NumWeights returns the total quantized parameter count.
func (q *Quantizer) NumWeights() int { return len(q.codes) }

// NumPages returns how many 4 KB pages the weight file occupies.
func (q *Quantizer) NumPages() int {
	return (len(q.codes) + PageSize - 1) / PageSize
}

// PageOf returns the page index of weight i in the weight file.
func PageOf(i int) int { return i / PageSize }

// PageOffset returns the byte offset of weight i within its page.
func PageOffset(i int) int { return i % PageSize }

// Scale returns the quantization step Δw of parameter tensor pi.
func (q *Quantizer) Scale(pi int) float32 { return q.scales[pi] }

// ScaleOfWeight returns the quantization step of flat weight index i.
func (q *Quantizer) ScaleOfWeight(i int) float32 {
	return q.scales[q.paramOf(i)]
}

// paramOf maps a flat weight index to its parameter-tensor index.
func (q *Quantizer) paramOf(i int) int {
	lo, hi := 0, len(q.offsets)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if q.offsets[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Requantize snaps the model's current float weights onto the fixed
// grid: codes are recomputed from the floats and the floats are
// overwritten with their dequantized values.
func (q *Quantizer) Requantize() {
	params := q.model.Params()
	for pi, p := range params {
		scale := q.scales[pi]
		base := q.offsets[pi]
		w := p.W.Data()
		for j, v := range w {
			c := int(math.Round(float64(v / scale)))
			if c > qmax {
				c = qmax
			} else if c < -qmax {
				c = -qmax
			}
			q.codes[base+j] = int8(c)
			w[j] = float32(c) * scale
		}
	}
	q.notify(AllParams)
}

// Code returns the int8 code of flat weight i.
func (q *Quantizer) Code(i int) int8 { return q.codes[i] }

// Codes returns a copy of all codes in weight-file order.
func (q *Quantizer) Codes() []int8 {
	return append([]int8(nil), q.codes...)
}

// CodesView returns the live backing slice of the codes in weight-file
// order. The slice aliases the quantizer's state: it must be treated as
// read-only and is invalidated semantically by any code mutation. The
// quantized inference engine uses it to run GEMM directly on the codes
// with zero copies.
func (q *Quantizer) CodesView() []int8 { return q.codes }

// ParamCodes returns the live code segment and scale of parameter
// tensor pi (read-only, like CodesView).
func (q *Quantizer) ParamCodes(pi int) (codes []int8, scale float32) {
	lo := q.offsets[pi]
	hi := len(q.codes)
	if pi+1 < len(q.offsets) {
		hi = q.offsets[pi+1]
	}
	return q.codes[lo:hi], q.scales[pi]
}

// ParamIndexOf maps a parameter pointer of the bound model to its
// tensor index, or -1 when the parameter is not part of the model.
func (q *Quantizer) ParamIndexOf(p *nn.Param) int {
	for i, mp := range q.model.Params() {
		if mp == p {
			return i
		}
	}
	return -1
}

// SetCode overwrites the code of weight i and writes the dequantized
// value through to the model's float weight.
func (q *Quantizer) SetCode(i int, c int8) {
	q.codes[i] = c
	pi := q.paramOf(i)
	p := q.model.Params()[pi]
	p.W.Data()[i-q.offsets[pi]] = float32(c) * q.scales[pi]
	q.notify(pi)
}

// LoadCodes replaces every code (length must match) and syncs the model
// floats.
func (q *Quantizer) LoadCodes(codes []int8) {
	if len(codes) != len(q.codes) {
		panic("quant: code length mismatch")
	}
	copy(q.codes, codes)
	q.syncFloats()
	q.notify(AllParams)
}

// syncFloats overwrites every model float with its dequantized code.
func (q *Quantizer) syncFloats() {
	params := q.model.Params()
	for pi, p := range params {
		scale := q.scales[pi]
		base := q.offsets[pi]
		w := p.W.Data()
		for j := range w {
			w[j] = float32(q.codes[base+j]) * scale
		}
	}
}

// FlipBit XORs the given bit (0 = LSB … 7 = sign bit) of weight i's
// two's-complement byte and writes the new value through to the model.
func (q *Quantizer) FlipBit(i int, bit uint) {
	b := byte(q.codes[i]) ^ (1 << bit)
	q.SetCode(i, int8(b))
}

// WeightFileBytes serializes the codes as the raw two's-complement
// weight file the victim maps into memory, zero-padded to a whole
// number of pages. The returned buffer is owned by the quantizer and
// reused by the next WeightFileBytes call — callers that keep the bytes
// across serializations must copy them.
func (q *Quantizer) WeightFileBytes() []byte {
	n := q.NumPages() * PageSize
	if cap(q.fileBuf) < n {
		q.fileBuf = make([]byte, n)
	}
	out := q.fileBuf[:n]
	for i, c := range q.codes {
		out[i] = byte(c)
	}
	for i := len(q.codes); i < n; i++ {
		out[i] = 0
	}
	return out
}

// LoadWeightFileBytes deserializes a (possibly corrupted) weight file
// back into codes and model floats. The buffer must cover every weight;
// padding past the last weight is ignored.
func (q *Quantizer) LoadWeightFileBytes(buf []byte) {
	if len(buf) < len(q.codes) {
		panic("quant: weight file too short")
	}
	for i := range q.codes {
		q.codes[i] = int8(buf[i])
	}
	q.syncFloats()
	q.notify(AllParams)
}

// BitReduce implements Algorithm 1 step 4: given the original code and a
// fine-tuned code, keep only the most significant differing bit, so the
// final perturbation is a single bit flip that preserves the change's
// direction and as much of its magnitude as possible.
// BitReduce(orig, new) = orig ⊕ Floor(orig ⊕ new).
func BitReduce(orig, tuned int8) int8 {
	diff := byte(orig) ^ byte(tuned)
	if diff == 0 {
		return orig
	}
	msb := byte(1) << (bits.Len8(diff) - 1)
	return int8(byte(orig) ^ msb)
}

// BitReduceMasked is BitReduce restricted to the bits not set in
// forbidden: the most significant differing bit outside the forbidden
// mask is flipped. When every differing bit is forbidden the original
// code is returned (no flip). An attacker uses this to dodge detectors
// that checksum specific bit positions (e.g. RADAR's MSB checksums).
func BitReduceMasked(orig, tuned int8, forbidden byte) int8 {
	diff := (byte(orig) ^ byte(tuned)) &^ forbidden
	if diff == 0 {
		return orig
	}
	msb := byte(1) << (bits.Len8(diff) - 1)
	return int8(byte(orig) ^ msb)
}

// HammingDistance counts differing bits between two code vectors of
// equal length (the paper's N_flip metric).
func HammingDistance(a, b []int8) int {
	if len(a) != len(b) {
		panic("quant: code vector length mismatch")
	}
	n := 0
	for i := range a {
		n += bits.OnesCount8(byte(a[i]) ^ byte(b[i]))
	}
	return n
}

// DiffBits lists every (weight index, bit, direction) where the two code
// vectors differ. Direction is true for a 0→1 flip (relative to a).
type BitDiff struct {
	// Weight is the flat weight-file index.
	Weight int
	// Bit is the bit position (0 = LSB).
	Bit uint
	// ZeroToOne is true when the bit goes 0→1 from a to b.
	ZeroToOne bool
}

// DiffBitsOf enumerates the bit flips that transform codes a into b.
func DiffBitsOf(a, b []int8) []BitDiff {
	if len(a) != len(b) {
		panic("quant: code vector length mismatch")
	}
	var out []BitDiff
	for i := range a {
		d := byte(a[i]) ^ byte(b[i])
		for bit := uint(0); bit < 8; bit++ {
			if d&(1<<bit) != 0 {
				out = append(out, BitDiff{
					Weight:    i,
					Bit:       bit,
					ZeroToOne: byte(b[i])&(1<<bit) != 0,
				})
			}
		}
	}
	return out
}
