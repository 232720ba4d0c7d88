package nn

import (
	"testing"

	"rowhammer/internal/tensor"
)

// Conv2D hot-path benchmarks at ResNet-20-representative geometry. Run
// with -benchmem: the headline number next to ns/op is allocs/op —
// the pooled scratch buffers (padded images, im2col columns, gradient
// panels) must keep steady-state allocation near zero.
//
//	go test -bench Conv2D -benchmem ./internal/nn/...

func benchConvSetup(b *testing.B) (*Conv2D, *tensor.Tensor) {
	rng := tensor.NewRNG(3)
	conv := NewConv2D("bench", rng, 16, 16, 3, 1, 1, false)
	x := tensor.New(8, 16, 32, 32)
	rng.FillNormal(x, 0, 1)
	return conv, x
}

func BenchmarkConv2DForward(b *testing.B) {
	conv, x := benchConvSetup(b)
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, true)
	}
}

func BenchmarkConv2DBackward(b *testing.B) {
	conv, x := benchConvSetup(b)
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	out := conv.Forward(x, true)
	grad := out.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Weight.G.Zero()
		conv.Backward(grad)
	}
}

// convStageGeometries are the three stride-1 stage shapes of the
// width-0.25 ResNet-20 at batch 32: channels, spatial size.
var convStageGeometries = []struct {
	name  string
	c, hw int
}{
	{"4to4_32x32", 4, 32},
	{"8to8_16x16", 8, 16},
	{"16to16_8x8", 16, 8},
}

// benchConvStages runs body for each stage geometry, on the direct
// path and on the im2col + GEMM lowering it replaces.
func benchConvStages(b *testing.B, body func(b *testing.B, conv *Conv2D, x *tensor.Tensor)) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	for _, g := range convStageGeometries {
		for _, path := range []string{"direct", "im2col"} {
			b.Run(g.name+"/"+path, func(b *testing.B) {
				convForceIm2Col = path == "im2col"
				defer func() { convForceIm2Col = false }()
				rng := tensor.NewRNG(3)
				conv := NewConv2D("bench", rng, g.c, g.c, 3, 1, 1, false)
				x := tensor.New(32, g.c, g.hw, g.hw)
				rng.FillNormal(x, 0, 1)
				body(b, conv, x)
			})
		}
	}
}

func BenchmarkConv2DStageForward(b *testing.B) {
	benchConvStages(b, func(b *testing.B, conv *Conv2D, x *tensor.Tensor) {
		conv.Forward(x, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conv.Forward(x, true)
		}
	})
}

func BenchmarkConv2DStageBackward(b *testing.B) {
	benchConvStages(b, func(b *testing.B, conv *Conv2D, x *tensor.Tensor) {
		grad := conv.Forward(x, true).Clone()
		conv.Backward(grad)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conv.Weight.G.Zero()
			conv.Backward(grad)
		}
	})
}

func BenchmarkLinearForwardBackward(b *testing.B) {
	rng := tensor.NewRNG(3)
	lin := NewLinear("bench", rng, 256, 10)
	x := tensor.New(32, 256)
	rng.FillNormal(x, 0, 1)
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := lin.Forward(x, true)
		lin.Backward(y)
	}
}
