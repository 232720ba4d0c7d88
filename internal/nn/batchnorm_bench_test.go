package nn

import (
	"fmt"
	"testing"

	"rowhammer/internal/tensor"
)

// BenchmarkBatchNorm times one batch-norm forward+backward at the
// ResNet-20 w0.25 stage shapes (batch 32), with batch statistics
// (victim training) and frozen (CFT+BR).
func BenchmarkBatchNorm(b *testing.B) {
	for _, s := range []struct{ c, hw int }{{4, 32}, {8, 16}, {16, 8}} {
		for _, frozen := range []bool{false, true} {
			name := fmt.Sprintf("%dx%d²/train", s.c, s.hw)
			if frozen {
				name = fmt.Sprintf("%dx%d²/frozen", s.c, s.hw)
			}
			b.Run(name, func(b *testing.B) {
				rng := tensor.NewRNG(1)
				x := tensor.New(32, s.c, s.hw, s.hw)
				g := tensor.New(32, s.c, s.hw, s.hw)
				rng.FillNormal(x, 0.5, 2)
				rng.FillNormal(g, 0, 1)
				bn := NewBatchNorm2D("bn", s.c)
				bn.Frozen = frozen
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bn.Forward(x, true)
					bn.Backward(g)
				}
			})
		}
	}
}
