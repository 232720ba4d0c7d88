package serve

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rowhammer/internal/tensor"
)

// BenchmarkServeQPS compares the unbatched serial reference (one direct
// batch-1 Forward per request) against the batched server at 1/2/4
// executor workers under heavy client concurrency. One op is one served
// request, so QPS = 1e9 / (ns/op); the server's win comes from
// micro-batch coalescing (per-forward overhead amortized over
// BatchMax rows) plus worker parallelism where cores allow.
func BenchmarkServeQPS(b *testing.B) {
	_, qm, ds := engineFixture(b, "resnet20", 3)
	c, h, w := ds.ImageSize()
	img := ds.Image(0)

	b.Run("serial", func(b *testing.B) {
		x := tensor.New(1, c, h, w)
		copy(x.Data(), img)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			qm.Forward(x)
		}
	})

	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("batched/w%d", workers), func(b *testing.B) {
			srv, err := NewServer(qm, Config{Shape: []int{c, h, w}, BatchMax: 32, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.SetParallelism(64)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if r := srv.Submit(img); r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			})
			b.StopTimer()
			srv.Close()
		})
	}
}

// BenchmarkServeFlipStorm measures serving throughput with the hot-swap
// path quiescent vs under a continuous flip storm (an attacker goroutine
// publishing a weight flip, then sleeping 200µs). The sleep overshoots,
// so the storm reaches 2,100–3,300 swaps/s (one per 300–480 µs) on a
// 2-vCPU Xeon rather than 5,000; the storm run reports the rate it
// achieved as swaps/s. With the epoch engine, a publish repacks one
// dirty panel off the hot path, so the storm run should stay within a
// small factor of quiescent throughput.
func BenchmarkServeFlipStorm(b *testing.B) {
	for _, storm := range []bool{false, true} {
		name := "quiescent"
		if storm {
			name = "storm"
		}
		b.Run(name, func(b *testing.B) {
			q, qm, ds := engineFixture(b, "resnet20", 3)
			c, h, w := ds.ImageSize()
			img := ds.Image(0)
			srv, err := NewServer(qm, Config{Shape: []int{c, h, w}, BatchMax: 32, Workers: 2})
			if err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			flipperDone := make(chan struct{})
			var swaps atomic.Int64
			if storm {
				go func() {
					defer close(flipperDone)
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := srv.Swap(func() { q.FlipBit(0, 7) }); err != nil {
							b.Error(err)
							return
						}
						swaps.Add(1)
						time.Sleep(200 * time.Microsecond)
					}
				}()
			} else {
				close(flipperDone)
			}
			b.SetParallelism(64)
			b.ResetTimer()
			first := swaps.Load()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if r := srv.Submit(img); r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			})
			b.StopTimer()
			if storm {
				b.ReportMetric(float64(swaps.Load()-first)/b.Elapsed().Seconds(), "swaps/s")
			}
			close(stop)
			<-flipperDone
			srv.Close()
		})
	}
}
