package tensor

// Blocked GEMM engine.
//
// The three matmul entry points (MatMulInto, MatMulATBInto,
// MatMulABTInto) all lower to gemm(), a cache-blocked kernel in the
// classic BLIS/GotoBLAS shape: the k dimension is split into KC-deep
// slabs, B is packed once per slab into NR-wide column panels, A is
// packed per MC-tall row block into MR-wide row panels, and an MR×NR
// register-tiled micro-kernel runs over the packed panels. Packing
// pays O(m·k + k·n) copies to make the O(m·n·k) inner loop read purely
// sequential memory, and the register tile keeps MR·NR accumulators
// live across the whole k loop with no C traffic inside it.
//
// Two micro-kernels exist: a 6×16 AVX2/FMA assembly kernel
// (gemm_amd64.s, selected at init when the CPU supports it) and a
// portable 2×4 pure-Go kernel sized so all accumulators stay in
// registers. The panel layout adapts to the selected tile via
// gemmMR/gemmNR.
//
// Both operands are described by (row, col) strides, so the transposed
// variants (AᵀB for weight gradients, ABᵀ for input gradients) reuse
// the same engine — the strides only affect the packing routines, never
// the micro-kernel.
//
// Pack buffers come from the package buffer pool (pool.go), so a
// training loop reuses the same panels call after call. Row blocks are
// distributed over the persistent worker pool; with MaxWorkers() == 1
// everything runs inline on the caller's goroutine.

const (
	gemmKC = 256 // k-slab depth: one packed B panel (KC×NR) stays L1-resident
	gemmNC = 512 // col-block width: bounds the packed B slab to KC×NC

	// Upper bounds over all kernels, for stack scratch at edge tiles.
	gemmMaxMR = 6
	gemmMaxNR = 16

	// gemmMinFlops gates the blocked path: below this m·n·k the packing
	// overhead outweighs the micro-kernel's wins and the naive kernels
	// are faster.
	gemmMinFlops = 1 << 13
)

// Micro-kernel configuration. The defaults are the portable pure-Go
// kernel; init() in gemm_amd64.go upgrades them when the CPU has
// AVX2+FMA.
var (
	gemmMR     = 2
	gemmNR     = 4
	gemmMC     = 64 // row-block height: packed A block (MC×KC) stays L2-resident
	gemmKernel = gemmKernel2x4
)

// gemmDotABT, when non-nil, handles the no-pack A·Bᵀ shape: both
// operands have contiguous k-rows (csA == 1, rsB == 1), so every C
// element is a dot product of two contiguous vectors and the packing
// passes are pure overhead. Profiling the training step on narrow
// models shows packB costing ~4× the FMA kernel when m is tiny (the
// per-layer weight-gradient GEMMs have m == outC as low as 4), which
// is exactly the shape this path removes. The gate below is a pure
// function of the operand shape — never of worker count — so results
// stay bit-identical across parallelism settings.
var gemmDotABT func(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32)

// gemmAxpyB, when non-nil, handles the complementary no-pack shape:
// op(B) has contiguous n-rows (csB == 1) and either m or k is small,
// so C is built row by row as k broadcast-FMA passes over B's rows —
// again with no packing. This covers the forward conv GEMMs (m == outC
// is small) and the input-gradient GEMMs (k == outC is small). Same
// determinism argument as gemmDotABT: the gate and the per-element
// summation order depend only on the shape.
var gemmAxpyB func(m, n, k int, a []float32, rsA, csA int, b []float32, ldb int, c []float32)

// gemmTakesNaive reports whether the MatMul entry points bypass gemm
// for the naive kernels on an m×k·k×n product.
func gemmTakesNaive(m, n, k int) bool { return m*n*k < gemmMinFlops }

// gemmTakesDot reports whether gemm routes a shape to gemmDotABT. The
// direct convolution gate (conv_direct.go) calls the same predicates,
// so it accepts a shape only where its kernels reproduce gemm's
// per-element operation sequence.
func gemmTakesDot(m, n, k, csA, rsB int) bool {
	return gemmDotABT != nil && csA == 1 && rsB == 1 && m <= 8 && m*n <= 1024 && k >= 64
}

// gemmTakesAxpy reports whether gemm routes a shape that gemmTakesDot
// rejected to gemmAxpyB.
func gemmTakesAxpy(m, n, k, csB int) bool {
	return gemmAxpyB != nil && csB == 1 && n >= 64 && (m <= 16 || k <= 16)
}

// gemm computes C = op(A)·op(B) into c (m×n, row-major, fully
// overwritten). op(A) is m×k with element (i,p) at a[i*rsA+p*csA];
// op(B) is k×n with element (p,j) at b[p*rsB+j*csB].
func gemm(m, n, k int, a []float32, rsA, csA int, b []float32, rsB, csB int, c []float32) {
	c = c[:m*n]
	if gemmTakesDot(m, n, k, csA, rsB) {
		gemmDotABT(m, n, k, a, rsA, b, csB, c)
		return
	}
	if gemmTakesAxpy(m, n, k, csB) {
		gemmAxpyB(m, n, k, a, rsA, csA, b, rsB, c)
		return
	}
	for i := range c {
		c[i] = 0
	}
	workers := MaxWorkers()
	if workers <= 1 {
		gemmSerial(m, n, k, a, rsA, csA, b, rsB, csB, c)
		return
	}
	gemmParallel(workers, m, n, k, a, rsA, csA, b, rsB, csB, c)
}

// gemmParallel is the multi-worker path. It lives in its own function
// so the worker closure's captures only force heap escapes here — with
// the branch inline in gemm, every serial call paid an allocation for
// the captured parameters at function entry.
func gemmParallel(workers, m, n, k int, a []float32, rsA, csA int, b []float32, rsB, csB int, c []float32) {
	mr, nr, mc := gemmMR, gemmNR, gemmMC
	for pc := 0; pc < k; pc += gemmKC {
		kc := min(gemmKC, k-pc)
		for jc := 0; jc < n; jc += gemmNC {
			nc := min(gemmNC, n-jc)
			nPanels := (nc + nr - 1) / nr
			pb := GetF32(nPanels * nr * kc)
			packBPanels(pb, b, rsB, csB, pc, kc, jc, nc)

			nBlocks := (m + mc - 1) / mc
			ParallelChunks(nBlocks, workers, func(blo, bhi int) {
				mPanels := (mc + mr - 1) / mr
				pa := GetF32(mPanels * mr * kc)
				// Edge-tile scratch: pooled (not stack) because passing
				// it through the kernel function variable would force a
				// heap escape per tile.
				tile := GetF32(gemmMaxMR * gemmMaxNR)
				for blk := blo; blk < bhi; blk++ {
					ic := blk * mc
					bm := min(mc, m-ic)
					packAPanels(pa, a, rsA, csA, ic, bm, pc, kc)
					gemmBlock(c, n, ic, bm, jc, nc, kc, pa, pb, tile)
				}
				PutF32(tile)
				PutF32(pa)
			})
			PutF32(pb)
		}
	}
}

// gemmSerial is the single-worker path: identical blocking, but no
// ParallelChunks closures, so the steady-state hot loop performs zero
// allocations (all buffers are pooled and reused across the k/n slabs).
func gemmSerial(m, n, k int, a []float32, rsA, csA int, b []float32, rsB, csB int, c []float32) {
	mr, nr, mc := gemmMR, gemmNR, gemmMC
	kcMax := min(gemmKC, k)
	ncMax := min(gemmNC, n)
	pb := GetF32(((ncMax + nr - 1) / nr) * nr * kcMax)
	pa := GetF32(((mc + mr - 1) / mr) * mr * kcMax)
	tile := GetF32(gemmMaxMR * gemmMaxNR)
	for pc := 0; pc < k; pc += gemmKC {
		kc := min(gemmKC, k-pc)
		for jc := 0; jc < n; jc += gemmNC {
			nc := min(gemmNC, n-jc)
			packBPanels(pb, b, rsB, csB, pc, kc, jc, nc)
			for ic := 0; ic < m; ic += mc {
				bm := min(mc, m-ic)
				packAPanels(pa, a, rsA, csA, ic, bm, pc, kc)
				gemmBlock(c, n, ic, bm, jc, nc, kc, pa, pb, tile)
			}
		}
	}
	PutF32(tile)
	PutF32(pa)
	PutF32(pb)
}

// packAPanels packs the mc×kc block of op(A) starting at row i0, depth
// p0 into MR-row panels: panel ir holds rows i0+MR·ir…, with element
// (p, r) at dst[ir·MR·kc + p·MR + r]. Rows past mc are zero-filled so
// the micro-kernel never needs a row bound.
func packAPanels(dst, a []float32, rs, cs, i0, mc, p0, kc int) {
	mr := gemmMR
	idx := 0
	for ir := 0; ir < mc; ir += mr {
		rows := min(mr, mc-ir)
		base := (i0 + ir) * rs
		for p := 0; p < kc; p++ {
			off := base + (p0+p)*cs
			for r := 0; r < rows; r++ {
				dst[idx+r] = a[off+r*rs]
			}
			for r := rows; r < mr; r++ {
				dst[idx+r] = 0
			}
			idx += mr
		}
	}
}

// packBPanels packs the kc×nc block of op(B) starting at depth p0,
// column j0 into NR-column panels: panel jr holds columns j0+NR·jr…,
// with element (p, c) at dst[jr·NR·kc + p·NR + c]. Columns past nc are
// zero-filled.
func packBPanels(dst, b []float32, rs, cs, p0, kc, j0, nc int) {
	nr := gemmNR
	idx := 0
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		base := (j0 + jr) * cs
		for p := 0; p < kc; p++ {
			off := base + (p0+p)*rs
			for cI := 0; cI < cols; cI++ {
				dst[idx+cI] = b[off+cI*cs]
			}
			for cI := cols; cI < nr; cI++ {
				dst[idx+cI] = 0
			}
			idx += nr
		}
	}
}

// gemmBlock multiplies one packed mc×kc A block against the packed
// kc×nc B slab, accumulating into the C window at (ic, jc). ldc is the
// full row stride of C. Full tiles go straight to the micro-kernel;
// remainder tiles run through the caller's scratch tile (≥ MR·NR,
// re-zeroed per use) so the kernel never needs bounds handling.
func gemmBlock(c []float32, ldc, ic, mc, jc, nc, kc int, pa, pb, tile []float32) {
	mr, nr := gemmMR, gemmNR
	kern := gemmKernel
	for jr := 0; jr < nc; jr += nr {
		bp := pb[(jr/nr)*nr*kc:]
		cols := min(nr, nc-jr)
		for ir := 0; ir < mc; ir += mr {
			ap := pa[(ir/mr)*mr*kc:]
			rows := min(mr, mc-ir)
			cOff := (ic+ir)*ldc + jc + jr
			if rows == mr && cols == nr {
				kern(kc, ap, bp, c[cOff:], ldc)
			} else {
				t := tile[:mr*nr]
				for i := range t {
					t[i] = 0
				}
				kern(kc, ap, bp, t, nr)
				for r := 0; r < rows; r++ {
					cr := c[cOff+r*ldc:]
					tr := t[r*nr:]
					for cI := 0; cI < cols; cI++ {
						cr[cI] += tr[cI]
					}
				}
			}
		}
	}
}

// gemmKernel2x4 accumulates a full 2×4 tile: C[0..2, 0..4] += Aᵖ·Bᵖ,
// where Aᵖ and Bᵖ are packed kc-deep panels laid out p-major. c
// addresses the tile's top-left element with row stride ldc. The tile
// is sized so the eight accumulators plus the six operands of each step
// all stay in registers — the fastest no-spill shape for the scalar
// code the Go compiler generates.
func gemmKernel2x4(kc int, ap, bp, c []float32, ldc int) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	ap = ap[: 2*kc : 2*kc]
	bp = bp[: 4*kc : 4*kc]
	ai := 0
	for p := 0; p <= len(bp)-4; p += 4 {
		a0, a1 := ap[ai], ap[ai+1]
		b0, b1, b2, b3 := bp[p], bp[p+1], bp[p+2], bp[p+3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		ai += 2
	}
	c0 := c[0:4]
	c0[0] += c00
	c0[1] += c01
	c0[2] += c02
	c0[3] += c03
	c1 := c[ldc : ldc+4]
	c1[0] += c10
	c1[1] += c11
	c1[2] += c12
	c1[3] += c13
}
