package quant

import (
	"math"
	"testing"
	"testing/quick"

	"rowhammer/internal/nn"
	"rowhammer/internal/tensor"
)

func toyModel(seed int64) *nn.Model {
	rng := tensor.NewRNG(seed)
	net := nn.NewSequential(
		nn.NewLinear("fc1", rng, 8, 16),
		nn.NewReLU(),
		nn.NewLinear("fc2", rng, 16, 4),
	)
	return nn.NewModel("toy", net, 4, [3]int{1, 2, 4})
}

func TestQuantizeRoundTripError(t *testing.T) {
	m := toyModel(1)
	before := m.FlattenParams()
	q := NewQuantizer(m)
	after := m.FlattenParams()
	// Snapped values must be within half a quantization step.
	off := 0
	for pi, p := range m.Params() {
		scale := q.Scale(pi)
		for j := 0; j < p.W.Len(); j++ {
			d := math.Abs(float64(before[off+j] - after[off+j]))
			if d > float64(scale)/2+1e-6 {
				t.Fatalf("param %d weight %d moved %v > Δw/2 = %v", pi, j, d, scale/2)
			}
		}
		off += p.W.Len()
	}
}

func TestScaleMatchesPaperFormula(t *testing.T) {
	m := toyModel(2)
	maxAbs := m.Params()[0].W.MaxAbs()
	q := NewQuantizer(m)
	want := maxAbs / 127
	if math.Abs(float64(q.Scale(0)-want)) > 1e-7 {
		t.Fatalf("scale = %v, want max/127 = %v", q.Scale(0), want)
	}
}

func TestCodesMatchDequantizedFloats(t *testing.T) {
	m := toyModel(3)
	q := NewQuantizer(m)
	flat := m.FlattenParams()
	for i := 0; i < q.NumWeights(); i++ {
		want := float32(q.Code(i)) * q.ScaleOfWeight(i)
		if flat[i] != want {
			t.Fatalf("weight %d float %v != code·scale %v", i, flat[i], want)
		}
	}
}

func TestSetCodeWritesThrough(t *testing.T) {
	m := toyModel(4)
	q := NewQuantizer(m)
	q.SetCode(0, 100)
	if q.Code(0) != 100 {
		t.Fatal("code not stored")
	}
	if got := m.Params()[0].W.Data()[0]; got != 100*q.Scale(0) {
		t.Fatalf("model float %v, want %v", got, 100*q.Scale(0))
	}
	// Last weight exercises the offset binary search upper edge.
	last := q.NumWeights() - 1
	q.SetCode(last, -5)
	ps := m.Params()
	lastParam := ps[len(ps)-1]
	got := lastParam.W.Data()[lastParam.W.Len()-1]
	if got != -5*q.Scale(len(ps)-1) {
		t.Fatalf("last weight float %v", got)
	}
}

func TestFlipBitTwosComplement(t *testing.T) {
	m := toyModel(5)
	q := NewQuantizer(m)
	q.SetCode(3, 1) // 0000_0001
	q.FlipBit(3, 7) // flip sign bit → 1000_0001 = -127
	if q.Code(3) != -127 {
		t.Fatalf("code after sign flip = %d, want -127", q.Code(3))
	}
	q.FlipBit(3, 7)
	if q.Code(3) != 1 {
		t.Fatal("double flip must restore")
	}
}

func TestWeightFileRoundTrip(t *testing.T) {
	m := toyModel(6)
	q := NewQuantizer(m)
	buf := q.WeightFileBytes()
	if len(buf)%PageSize != 0 {
		t.Fatalf("weight file len %d not page aligned", len(buf))
	}
	// Corrupt one byte and reload.
	buf[7] ^= 0x80
	q.LoadWeightFileBytes(buf)
	if byte(q.Code(7))&0x80 == 0 {
		t.Fatal("corruption did not propagate")
	}
	if got := m.Params()[0].W.Data()[7]; got != float32(q.Code(7))*q.Scale(0) {
		t.Fatal("model float not synced after load")
	}
}

func TestLoadCodesValidatesLength(t *testing.T) {
	q := NewQuantizer(toyModel(7))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	q.LoadCodes(make([]int8, 3))
}

func TestBitReduceExamples(t *testing.T) {
	// The paper's worked example: θ = 1101₂, θ* = 1010₂,
	// Floor(θ⊕θ*) = Floor(0111₂) = 0100₂, result = θ ⊕ 0100₂ = 1001₂.
	if got := BitReduce(0b1101, 0b1010); got != 0b1001 {
		t.Fatalf("BitReduce = %08b, want 1001", byte(got))
	}
	if got := BitReduce(42, 42); got != 42 {
		t.Fatal("identical codes must be unchanged")
	}
}

func TestBitReducePropertySingleFlip(t *testing.T) {
	f := func(a, b int8) bool {
		r := BitReduce(a, b)
		d := HammingDistance([]int8{a}, []int8{r})
		if a == b {
			return d == 0
		}
		if d != 1 {
			return false
		}
		// The flipped bit must be the most significant differing bit,
		// and must move a toward b.
		diff := byte(a) ^ byte(b)
		flipped := byte(a) ^ byte(r)
		return flipped&diff == flipped && flipped > diff>>1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitReducePreservesDirection(t *testing.T) {
	f := func(a, b int8) bool {
		if a == b {
			return true
		}
		r := BitReduce(a, b)
		// Moving a→r should go the same direction as a→b.
		db := int(b) - int(a)
		dr := int(r) - int(a)
		return (db > 0) == (dr > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHammingDistance(t *testing.T) {
	a := []int8{0, -1, 3}
	b := []int8{0, 0, 1}
	// -1 = 0xFF vs 0x00 → 8 bits; 3 vs 1 → 1 bit.
	if got := HammingDistance(a, b); got != 9 {
		t.Fatalf("HammingDistance = %d, want 9", got)
	}
}

func TestDiffBitsOf(t *testing.T) {
	a := []int8{0b0101, 0}
	b := []int8{0b0110, 0}
	diffs := DiffBitsOf(a, b)
	if len(diffs) != 2 {
		t.Fatalf("got %d diffs, want 2", len(diffs))
	}
	// bit 0: 1→0, bit 1: 0→1.
	var saw0to1, saw1to0 bool
	for _, d := range diffs {
		if d.Weight != 0 {
			t.Fatal("wrong weight index")
		}
		if d.Bit == 1 && d.ZeroToOne {
			saw0to1 = true
		}
		if d.Bit == 0 && !d.ZeroToOne {
			saw1to0 = true
		}
	}
	if !saw0to1 || !saw1to0 {
		t.Fatalf("directions wrong: %+v", diffs)
	}
}

func TestPageHelpers(t *testing.T) {
	if PageOf(4095) != 0 || PageOf(4096) != 1 {
		t.Fatal("PageOf wrong")
	}
	if PageOffset(4097) != 1 {
		t.Fatal("PageOffset wrong")
	}
	q := NewQuantizer(toyModel(8))
	wantPages := (q.NumWeights() + PageSize - 1) / PageSize
	if q.NumPages() != wantPages {
		t.Fatalf("NumPages = %d, want %d", q.NumPages(), wantPages)
	}
}

func TestRequantizeAfterFloatDrift(t *testing.T) {
	m := toyModel(9)
	q := NewQuantizer(m)
	orig := q.Code(5)
	// Drift the float by +1.6 steps; requantize should move the code.
	p := m.Params()[0]
	p.W.Data()[5] += 1.6 * q.Scale(0)
	q.Requantize()
	if q.Code(5) != orig+2 && q.Code(5) != orig+1 {
		t.Fatalf("code after drift = %d, want %d+1or2", q.Code(5), orig)
	}
	// Floats must again sit exactly on the grid.
	if got := p.W.Data()[5]; got != float32(q.Code(5))*q.Scale(0) {
		t.Fatal("float not snapped after requantize")
	}
}

func TestQuantizeClampsToPlusMinus127(t *testing.T) {
	m := toyModel(10)
	q := NewQuantizer(m)
	p := m.Params()[0]
	p.W.Data()[0] = 1e9
	p.W.Data()[1] = -1e9
	q.Requantize()
	if q.Code(0) != 127 || q.Code(1) != -127 {
		t.Fatalf("codes = %d, %d; want ±127", q.Code(0), q.Code(1))
	}
}

func TestBitReduceMasked(t *testing.T) {
	// MSB forbidden: the flip must pick the next differing bit.
	// orig and tuned differ at bits 7 and 6.
	orig := int8(1)
	tunedByte := byte(1) ^ 0x80 ^ 0x40
	tuned := int8(tunedByte)
	got := BitReduceMasked(orig, tuned, 0x80)
	if byte(got) != byte(1)^0x40 {
		t.Fatalf("masked reduce = %08b, want bit6 flip", byte(got))
	}
	// Every differing bit forbidden → no flip.
	signFlipped := byte(1) ^ 0x80
	if got := BitReduceMasked(1, int8(signFlipped), 0x80); got != 1 {
		t.Fatalf("fully masked reduce = %d, want orig", got)
	}
	// No mask behaves like BitReduce.
	if BitReduceMasked(0b1101, 0b1010, 0) != BitReduce(0b1101, 0b1010) {
		t.Fatal("zero mask must match BitReduce")
	}
}
