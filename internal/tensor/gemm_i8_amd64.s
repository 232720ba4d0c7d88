// AVX2 micro-kernel for the blocked int8 GEMM engine (gemm_i8.go).
// Selected at runtime by gemm_i8_amd64.go when CPUID reports AVX2 with
// OS-enabled YMM state.

#include "textflag.h"

// func gemmI8Kernel4x16Asm(kc2 int, ap, bp *int16, c *int32, ldc, acc int)
//
// Computes a 4×16 int32 tile over int16-pair panels,
//
//	t[r][j] = Σ_p2 ap[p2*8 + 2r]·bp[p2*32 + 2j] +
//	               ap[p2*8 + 2r+1]·bp[p2*32 + 2j+1],
//
// and adds it to c[r*ldc + j] when acc is non-zero (a later k-slab) or
// stores it there when acc is zero (the first).
//
// Per k-pair, the B panel holds 16 interleaved (even, odd) int16 column
// pairs (two YMM loads) and the A panel holds 4 row pairs, each
// broadcast as one 32-bit lane (VPBROADCASTD). VPMADDWD multiplies the
// int16 pairs and adds each pair-product into one int32 lane — the
// exact signed dot product — and VPADDD folds it into one of the eight
// YMM accumulators kept live across the whole loop.
TEXT ·gemmI8Kernel4x16Asm(SB), NOSPLIT, $0-48
	MOVQ kc2+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	MOVQ acc+40(FP), R9
	SHLQ $2, R8             // row stride in bytes

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

	TESTQ CX, CX
	JZ    writeback

kloop:
	VMOVDQU (DI), Y12       // B column pairs 0–7
	VMOVDQU 32(DI), Y13     // B column pairs 8–15

	VPBROADCASTD (SI), Y14
	VPMADDWD     Y12, Y14, Y15
	VPADDD       Y15, Y0, Y0
	VPMADDWD     Y13, Y14, Y15
	VPADDD       Y15, Y1, Y1

	VPBROADCASTD 4(SI), Y14
	VPMADDWD     Y12, Y14, Y15
	VPADDD       Y15, Y2, Y2
	VPMADDWD     Y13, Y14, Y15
	VPADDD       Y15, Y3, Y3

	VPBROADCASTD 8(SI), Y14
	VPMADDWD     Y12, Y14, Y15
	VPADDD       Y15, Y4, Y4
	VPMADDWD     Y13, Y14, Y15
	VPADDD       Y15, Y5, Y5

	VPBROADCASTD 12(SI), Y14
	VPMADDWD     Y12, Y14, Y15
	VPADDD       Y15, Y6, Y6
	VPMADDWD     Y13, Y14, Y15
	VPADDD       Y15, Y7, Y7

	ADDQ $16, SI            // 4 int16 pairs of A
	ADDQ $64, DI            // 16 int16 pairs of B
	DECQ CX
	JNZ  kloop

writeback:
	TESTQ R9, R9
	JZ    store

	VMOVDQU (DX), Y12
	VPADDD  Y0, Y12, Y12
	VMOVDQU Y12, (DX)
	VMOVDQU 32(DX), Y13
	VPADDD  Y1, Y13, Y13
	VMOVDQU Y13, 32(DX)
	ADDQ    R8, DX

	VMOVDQU (DX), Y12
	VPADDD  Y2, Y12, Y12
	VMOVDQU Y12, (DX)
	VMOVDQU 32(DX), Y13
	VPADDD  Y3, Y13, Y13
	VMOVDQU Y13, 32(DX)
	ADDQ    R8, DX

	VMOVDQU (DX), Y12
	VPADDD  Y4, Y12, Y12
	VMOVDQU Y12, (DX)
	VMOVDQU 32(DX), Y13
	VPADDD  Y5, Y13, Y13
	VMOVDQU Y13, 32(DX)
	ADDQ    R8, DX

	VMOVDQU (DX), Y12
	VPADDD  Y6, Y12, Y12
	VMOVDQU Y12, (DX)
	VMOVDQU 32(DX), Y13
	VPADDD  Y7, Y13, Y13
	VMOVDQU Y13, 32(DX)

	VZEROUPPER
	RET

store:
	VMOVDQU Y0, (DX)
	VMOVDQU Y1, 32(DX)
	ADDQ    R8, DX
	VMOVDQU Y2, (DX)
	VMOVDQU Y3, 32(DX)
	ADDQ    R8, DX
	VMOVDQU Y4, (DX)
	VMOVDQU Y5, 32(DX)
	ADDQ    R8, DX
	VMOVDQU Y6, (DX)
	VMOVDQU Y7, 32(DX)

	VZEROUPPER
	RET

// func packBPanelI8Asm(dst *int16, b *int8, ldb, npairs int)
//
// Packs npairs full k-pairs of one 16-column B panel: for pair i, rows
// b[2i·ldb…] and b[(2i+1)·ldb…] are interleaved byte-wise (PUNPCKLBW
// and PUNPCKHBW give even/odd byte pairs for columns 0–7 and 8–15),
// then sign-extended to int16, producing the 32-int16 (64-byte) pair
// layout gemmI8Kernel4x16Asm consumes.
TEXT ·packBPanelI8Asm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), R8
	MOVQ npairs+24(FP), CX

	LEAQ (SI)(R8*1), DX     // odd row pointer
	SHLQ $1, R8             // advance both rows by 2·ldb per pair

	TESTQ CX, CX
	JZ    packdone

packloop:
	VMOVDQU    (SI), X0     // 16 int8 of the even row
	VMOVDQU    (DX), X1     // 16 int8 of the odd row
	VPUNPCKLBW X1, X0, X2   // e0 o0 … e7 o7
	VPUNPCKHBW X1, X0, X3   // e8 o8 … e15 o15
	VPMOVSXBW  X2, Y2
	VPMOVSXBW  X3, Y3
	VMOVDQU    Y2, (DI)
	VMOVDQU    Y3, 32(DI)

	ADDQ $64, DI
	ADDQ R8, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  packloop

packdone:
	VZEROUPPER
	RET

// func packConvPanelI8Asm(dst *int16, lo, hi *int8, offs *int32, npairs, stride int)
//
// Packs npairs k-pairs of one 16-column conv panel straight from the
// padded int8 planes (pack_i8.go). For pair i, columns 0–7 of the even
// row are the bytes at lo+offs[2i] + stride·c for c = 0…7, of the odd
// row at lo+offs[2i+1], and columns 8–15 the same at hi. Each half is
// interleaved byte-wise (even, odd) and sign-extended, as in
// packBPanelI8Asm. Stride 1 reads 8 bytes per row; stride 2 reads 16
// and keeps the even ones, merging two rows as
// (even & 0x00ff) | odd<<8 per 16-bit word.
TEXT ·packConvPanelI8Asm(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ lo+8(FP), SI
	MOVQ hi+16(FP), DX
	MOVQ offs+24(FP), R9
	MOVQ npairs+32(FP), CX
	MOVQ stride+40(FP), R8

	TESTQ CX, CX
	JZ    convpackdone
	CMPQ  R8, $2
	JEQ   convpack2

convpack1:
	MOVLQSX    0(R9), R10   // even row offset
	MOVLQSX    4(R9), R11   // odd row offset
	VMOVQ      (SI)(R10*1), X0
	VMOVQ      (SI)(R11*1), X1
	VPUNPCKLBW X1, X0, X0   // columns 0–7: e0 o0 … e7 o7
	VMOVQ      (DX)(R10*1), X2
	VMOVQ      (DX)(R11*1), X3
	VPUNPCKLBW X3, X2, X2   // columns 8–15
	VPMOVSXBW  X0, Y0
	VPMOVSXBW  X2, Y2
	VMOVDQU    Y0, (DI)
	VMOVDQU    Y2, 32(DI)

	ADDQ $64, DI
	ADDQ $8, R9
	DECQ CX
	JNZ  convpack1
	JMP  convpackdone

convpack2:
	VPCMPEQW X15, X15, X15
	VPSRLW   $8, X15, X15   // 0x00ff in every word

convpack2loop:
	MOVLQSX   0(R9), R10
	MOVLQSX   4(R9), R11
	VPAND     (SI)(R10*1), X15, X0
	VMOVDQU   (SI)(R11*1), X1
	VPSLLW    $8, X1, X1
	VPOR      X1, X0, X0    // columns 0–7: e0 o0 … e7 o7
	VPAND     (DX)(R10*1), X15, X2
	VMOVDQU   (DX)(R11*1), X3
	VPSLLW    $8, X3, X3
	VPOR      X3, X2, X2    // columns 8–15
	VPMOVSXBW X0, Y0
	VPMOVSXBW X2, Y2
	VMOVDQU   Y0, (DI)
	VMOVDQU   Y2, 32(DI)

	ADDQ $64, DI
	ADDQ $8, R9
	DECQ CX
	JNZ  convpack2loop

convpackdone:
	VZEROUPPER
	RET
