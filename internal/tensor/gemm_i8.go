package tensor

// Blocked int8 GEMM engine: C (int32) = A (int8) · B (int8).
//
// This is the deployment-form twin of the float engine in gemm.go: the
// quantized forward pass multiplies weight codes against quantized
// activation columns and accumulates exactly in int32, so the result is
// bit-identical across the assembly and portable kernels — only the
// single fp32 rescale at the layer boundary is inexact.
//
// Both operands are widened to int16 during packing so the AVX2 kernel
// can use VPMADDWD (signed int16 pair dot-product into int32 lanes)
// without the int16 saturation hazard of the u8×s8 VPMADDUBSW path.
// The k dimension is therefore processed in PAIRS: an A panel stores,
// per k-pair, MR row-pairs of int16; a B panel stores NR column-pairs.
// Odd k is zero-padded inside the final pair.
//
// Accumulation bound: |a|,|b| ≤ 127, so each int32 accumulator grows by
// at most 2·127² per pair step; k may reach ~66,000 before overflow —
// far beyond any layer in this repo (the caller is responsible past
// that).
//
// The packed-A layout is exposed (PackAI8/PackAI8Len) so the quantized
// model can pack each weight tensor once and reuse the panels across
// thousands of evaluate-after-flip forwards, repacking only the tensor
// a SetCode/FlipBit touched.

const (
	gemmI8KC = 512  // k-slab depth, even so k-pairs never straddle slabs
	gemmI8NC = 1024 // column-block width of one packed B slab

	gemmI8MaxMR = 4
	gemmI8MaxNR = 16

	// gemmI8MinFlops gates the blocked path, like gemmMinFlops.
	gemmI8MinFlops = 1 << 13
)

// Micro-kernel configuration: portable defaults, upgraded by init() in
// gemm_i8_amd64.go when the CPU has AVX2.
var (
	gemmI8MR     = 2
	gemmI8NR     = 4
	gemmI8Kernel = gemmI8Kernel2x4
)

// PackAI8Len returns the int16 buffer length PackAI8 requires for an
// m×k matrix.
func PackAI8Len(m, k int) int {
	mr := gemmI8MR
	kp := (k + 1) / 2
	panels := (m + mr - 1) / mr
	return panels * kp * mr * 2
}

// PackAI8 packs A (m×k int8, row-major) into MR-row panels of int16
// k-pairs for GemmI8PackedA: panel ir covers rows ir·MR…, and within a
// panel k-pair p2 stores MR consecutive (even, odd) element pairs.
// Rows past m and the odd-k tail are zero-filled so the micro-kernel
// needs no bounds handling.
func PackAI8(dst []int16, a []int8, m, k int) {
	mr := gemmI8MR
	kp := (k + 1) / 2
	idx := 0
	for ir := 0; ir < m; ir += mr {
		rows := min(mr, m-ir)
		for p2 := 0; p2 < kp; p2++ {
			p := 2 * p2
			for r := 0; r < mr; r++ {
				if r < rows {
					row := a[(ir+r)*k : (ir+r+1)*k]
					dst[idx] = int16(row[p])
					if p+1 < k {
						dst[idx+1] = int16(row[p+1])
					} else {
						dst[idx+1] = 0
					}
				} else {
					dst[idx] = 0
					dst[idx+1] = 0
				}
				idx += 2
			}
		}
	}
}

// packBPanelFast, when non-nil (amd64 with AVX2), packs full 16-column
// panels of whole k-pairs in assembly; everything else goes through the
// portable loop below.
var packBPanelFast func(dst *int16, b *int8, ldb, npairs int)

// packBI8Panels packs the kc×nc block of B (row stride ldb) starting at
// row p0, column j0 into NR-column panels of int16 k-pairs: panel jr
// holds columns j0+NR·jr…, and k-pair p2 stores NR consecutive (even,
// odd) pairs. Columns past nc and the odd tail of the final slab are
// zero-filled.
func packBI8Panels(dst []int16, b []int8, ldb, p0, kc, j0, nc int) {
	nr := gemmI8NR
	kp := (kc + 1) / 2
	idx := 0
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		if cols == 16 && nr == 16 && packBPanelFast != nil {
			if full := kc / 2; full > 0 {
				packBPanelFast(&dst[idx], &b[p0*ldb+j0+jr], ldb, full)
				idx += full * 2 * nr
			}
			if kc&1 == 1 {
				// Odd tail: even row present, odd slot zero-filled.
				row0 := b[(p0+kc-1)*ldb+j0+jr:][:nr]
				d := dst[idx : idx+2*nr]
				for cI, v := range row0 {
					d[2*cI] = int16(v)
					d[2*cI+1] = 0
				}
				idx += 2 * nr
			}
			continue
		}
		for p2 := 0; p2 < kp; p2++ {
			p := p0 + 2*p2
			row0 := b[p*ldb+j0+jr:]
			var row1 []int8
			if 2*p2+1 < kc {
				row1 = b[(p+1)*ldb+j0+jr:]
			}
			if cols == nr && row1 != nil {
				// Full panel: branch-free interleave with hoisted bounds.
				r0 := row0[:nr]
				r1 := row1[:nr]
				d := dst[idx : idx+2*nr]
				for cI, v := range r0 {
					d[2*cI] = int16(v)
					d[2*cI+1] = int16(r1[cI])
				}
				idx += 2 * nr
				continue
			}
			for cI := 0; cI < nr; cI++ {
				if cI < cols {
					dst[idx] = int16(row0[cI])
					if row1 != nil {
						dst[idx+1] = int16(row1[cI])
					} else {
						dst[idx+1] = 0
					}
				} else {
					dst[idx] = 0
					dst[idx+1] = 0
				}
				idx += 2
			}
		}
	}
}

// GemmI8 computes c (int32, m×n row-major, fully overwritten) = A·B for
// A (m×k int8) and B (k×n int8), both row-major. Small problems take
// the naive path; larger ones pack A into pooled panels and run the
// blocked engine.
func GemmI8(c []int32, a []int8, m, k int, b []int8, n int) {
	if m*n*k < gemmI8MinFlops {
		gemmI8Naive(c, a, m, k, b, n)
		return
	}
	pa := GetI16(PackAI8Len(m, k))
	PackAI8(pa, a, m, k)
	GemmI8PackedA(c, pa, m, k, n, matrixI8{b: b, n: n})
	PutI16(pa)
}

// GemmI8PackedA computes c (int32, m×n row-major, fully overwritten) =
// A·B where A was packed by PackAI8 (under the current kernel
// configuration) and B is the k×n right-hand side src packs. Column
// blocks are distributed over the persistent worker pool; each worker
// packs its own B slabs and owns a disjoint slab of C, so no
// synchronization is needed beyond the chunk barrier. The first k-slab
// stores its tiles into C and later slabs add to them.
func GemmI8PackedA(c []int32, pa []int16, m, k, n int, src PackerI8) {
	c = c[:m*n]
	if k == 0 {
		clear(c)
		return
	}
	nr := gemmI8NR
	kp := (k + 1) / 2
	nBlocks := (n + gemmI8NC - 1) / gemmI8NC
	kcMax := min(gemmI8KC, k)
	ncMax := min(gemmI8NC, n)
	pbLen := ((ncMax + nr - 1) / nr) * nr * ((kcMax + 1) / 2) * 2
	ParallelChunks(nBlocks, MaxWorkers(), func(blo, bhi int) {
		pb := GetI16(pbLen)
		tile := GetI32(gemmI8MaxMR * gemmI8MaxNR)
		for blk := blo; blk < bhi; blk++ {
			jc := blk * gemmI8NC
			nc := min(gemmI8NC, n-jc)
			for pc := 0; pc < k; pc += gemmI8KC {
				kc := min(gemmI8KC, k-pc)
				src.packB(pb, pc, kc, jc, nc)
				gemmI8Block(c, n, m, jc, nc, pc, kc, kp, pa, pb, tile)
			}
		}
		PutI32(tile)
		PutI16(pb)
	})
}

// gemmI8Block multiplies every packed A panel against one packed B slab
// (k-pairs [pc/2, pc/2+kc2), columns [jc, jc+nc)) into C: the first
// slab (pc = 0) stores, later slabs accumulate. kp is the total k-pair
// count of the packed A (the panel stride). Remainder tiles run through
// the caller's scratch tile, like the float engine.
func gemmI8Block(c []int32, ldc, m, jc, nc, pc, kc, kp int, pa, pb []int16, tile []int32) {
	mr, nr := gemmI8MR, gemmI8NR
	kern := gemmI8Kernel
	kc2 := (kc + 1) / 2
	acc := pc > 0
	for jr := 0; jr < nc; jr += nr {
		bp := pb[(jr/nr)*nr*2*kc2:]
		cols := min(nr, nc-jr)
		for ir := 0; ir < m; ir += mr {
			ap := pa[((ir/mr)*kp+pc/2)*mr*2:]
			rows := min(mr, m-ir)
			cOff := ir*ldc + jc + jr
			if rows == mr && cols == nr {
				kern(kc2, ap, bp, c[cOff:], ldc, acc)
				continue
			}
			t := tile[:mr*nr]
			kern(kc2, ap, bp, t, nr, false)
			for r := 0; r < rows; r++ {
				cr := c[cOff+r*ldc:][:cols]
				tr := t[r*nr:][:cols]
				if acc {
					for cI, v := range tr {
						cr[cI] += v
					}
				} else {
					copy(cr, tr)
				}
			}
		}
	}
}

// gemmI8Kernel2x4 computes a full 2×4 int32 tile over int16-pair
// panels and adds it to c (acc) or stores it there: per k-pair, the A
// panel supplies 2 row-pairs and the B panel 4 column-pairs. The
// products are widened to int32 before the multiply, so the
// accumulation is exact.
func gemmI8Kernel2x4(kc2 int, ap, bp []int16, c []int32, ldc int, acc bool) {
	var c00, c01, c02, c03 int32
	var c10, c11, c12, c13 int32
	ap = ap[: 4*kc2 : 4*kc2]
	bp = bp[: 8*kc2 : 8*kc2]
	ai := 0
	for p := 0; p <= len(bp)-8; p += 8 {
		a00, a01 := int32(ap[ai]), int32(ap[ai+1])
		a10, a11 := int32(ap[ai+2]), int32(ap[ai+3])
		b00, b01 := int32(bp[p]), int32(bp[p+1])
		b10, b11 := int32(bp[p+2]), int32(bp[p+3])
		b20, b21 := int32(bp[p+4]), int32(bp[p+5])
		b30, b31 := int32(bp[p+6]), int32(bp[p+7])
		c00 += a00*b00 + a01*b01
		c01 += a00*b10 + a01*b11
		c02 += a00*b20 + a01*b21
		c03 += a00*b30 + a01*b31
		c10 += a10*b00 + a11*b01
		c11 += a10*b10 + a11*b11
		c12 += a10*b20 + a11*b21
		c13 += a10*b30 + a11*b31
		ai += 4
	}
	c0 := c[0:4]
	c1 := c[ldc : ldc+4]
	if acc {
		c00, c01, c02, c03 = c00+c0[0], c01+c0[1], c02+c0[2], c03+c0[3]
		c10, c11, c12, c13 = c10+c1[0], c11+c1[1], c12+c1[2], c13+c1[3]
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
	c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
}

// gemmI8Naive is the reference triple loop (also the small-shape path).
func gemmI8Naive(c []int32, a []int8, m, k int, b []int8, n int) {
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
		ai := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := int32(ai[p])
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j := range ci {
				ci[j] += av * int32(bp[j])
			}
		}
	}
}
