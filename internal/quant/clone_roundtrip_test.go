package quant

import "testing"

// TestFlipBitThenClone pins the interaction every attack copy relies on:
// after the quantizer mutates master weights via FlipBit, Model.Clone
// must carry the mutated values into the copy exactly. (The trainer's
// replicas resync from the master through replica.syncFrom.)
func TestFlipBitThenClone(t *testing.T) {
	m := toyModel(5)
	q := NewQuantizer(m)
	orig := q.Codes()

	// Flip a few bits spread across the weight vector, including a sign
	// bit, so the float weights drift off their original codes.
	nw := q.NumWeights()
	for _, f := range []struct {
		idx int
		bit uint
	}{{0, 0}, {nw / 2, 3}, {nw - 1, 7}} {
		q.FlipBit(f.idx, f.bit)
	}
	if d := HammingDistance(orig, q.Codes()); d != 3 {
		t.Fatalf("expected 3 flipped bits, got Hamming distance %d", d)
	}

	dst := m.Clone()
	mp, dp := m.Params(), dst.Params()
	for i := range mp {
		md, dd := mp[i].W.Data(), dp[i].W.Data()
		for j := range md {
			if md[j] != dd[j] {
				t.Fatalf("param %q[%d]: %v != %v in the clone", mp[i].Name, j, dd[j], md[j])
			}
		}
	}
}
