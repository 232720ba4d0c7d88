package tensor

import "fmt"

// MatMul computes C = A·B for A (m×k) and B (k×n), returning a new m×n
// tensor.
func MatMul(a, b *Tensor) *Tensor {
	m, k := mat2(a)
	k2, n := mat2(b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmul inner dims %d != %d", k, k2))
	}
	c := New(m, n)
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes dst = A·B, where dst is a preallocated m×n tensor.
// Large products run on the blocked GEMM engine (gemm.go); small ones
// fall back to the naive kernel, whose lack of packing overhead wins at
// tiny sizes.
func MatMulInto(dst, a, b *Tensor) {
	m, k := mat2(a)
	k2, n := mat2(b)
	dm, dn := mat2(dst)
	if k != k2 || dm != m || dn != n {
		panic("tensor: matmul shape mismatch")
	}
	if gemmTakesNaive(m, n, k) {
		matMulNaiveInto(dst, a, b)
		return
	}
	gemm(m, n, k, a.data, k, 1, b.data, n, 1, dst.data)
}

// MatMulATBInto computes dst = Aᵀ·B for A (k×m) and B (k×n); dst is m×n.
// Used for weight-gradient accumulation.
func MatMulATBInto(dst, a, b *Tensor) {
	k, m := mat2(a)
	k2, n := mat2(b)
	dm, dn := mat2(dst)
	if k != k2 || dm != m || dn != n {
		panic("tensor: matmulATB shape mismatch")
	}
	if gemmTakesNaive(m, n, k) {
		matMulNaiveATBInto(dst, a, b)
		return
	}
	gemm(m, n, k, a.data, 1, m, b.data, n, 1, dst.data)
}

// MatMulABTInto computes dst = A·Bᵀ for A (m×k) and B (n×k); dst is m×n.
// Used for input-gradient propagation.
func MatMulABTInto(dst, a, b *Tensor) {
	m, k := mat2(a)
	n, k2 := mat2(b)
	dm, dn := mat2(dst)
	if k != k2 || dm != m || dn != n {
		panic("tensor: matmulABT shape mismatch")
	}
	if gemmTakesNaive(m, n, k) {
		matMulNaiveABTInto(dst, a, b)
		return
	}
	gemm(m, n, k, a.data, k, 1, b.data, 1, k, dst.data)
}

// The naive kernels below are the pre-blocking reference
// implementations. They remain the dispatch target for small shapes,
// the golden reference for the GEMM correctness tests (gemm_test.go),
// and the baseline for the before/after benchmarks
// (gemm_bench_test.go).

// matMulNaiveInto is the row-at-a-time axpy kernel: dst = A·B.
func matMulNaiveInto(dst, a, b *Tensor) {
	m, k := mat2(a)
	_, n := mat2(b)
	ad, bd, cd := a.data, b.data, dst.data
	parallelFor(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := cd[i*n : (i+1)*n]
			for x := range ci {
				ci[x] = 0
			}
			ai := ad[i*k : (i+1)*k]
			for p := 0; p < k; p++ {
				av := ai[p]
				if av == 0 {
					continue
				}
				bp := bd[p*n : (p+1)*n]
				for j := range ci {
					ci[j] += av * bp[j]
				}
			}
		}
	})
}

// matMulNaiveATBInto is the reference dst = Aᵀ·B kernel.
func matMulNaiveATBInto(dst, a, b *Tensor) {
	k, m := mat2(a)
	_, n := mat2(b)
	ad, bd, cd := a.data, b.data, dst.data
	parallelFor(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := cd[i*n : (i+1)*n]
			for x := range ci {
				ci[x] = 0
			}
			for p := 0; p < k; p++ {
				av := ad[p*m+i]
				if av == 0 {
					continue
				}
				bp := bd[p*n : (p+1)*n]
				for j := range ci {
					ci[j] += av * bp[j]
				}
			}
		}
	})
}

// matMulNaiveABTInto is the reference dst = A·Bᵀ kernel.
func matMulNaiveABTInto(dst, a, b *Tensor) {
	m, k := mat2(a)
	n, _ := mat2(b)
	ad, bd, cd := a.data, b.data, dst.data
	parallelFor(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := ad[i*k : (i+1)*k]
			ci := cd[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := bd[j*k : (j+1)*k]
				var s float32
				for p := range ai {
					s += ai[p] * bj[p]
				}
				ci[j] = s
			}
		}
	})
}

func mat2(t *Tensor) (rows, cols int) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: expected 2-D tensor, got shape %v", t.shape))
	}
	return t.shape[0], t.shape[1]
}
