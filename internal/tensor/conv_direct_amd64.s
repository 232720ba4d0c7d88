// AVX2/FMA kernels of the direct stride-1 convolution
// (conv_direct.go). Each reads shifted windows of a zero-padded image or
// gradient in place and keeps its output tile in registers across all
// taps. The per-element FMA/add sequence matches the GEMM kernel in
// gemm_amd64.s / gemm_dot_amd64.s that the lowered path would run.

#include "textflag.h"

// func convFwdTileAsm(taps int, offs *int, w0, w1, s0, s1, s2, s3, d0, d1 *float32)
//
// Two output channels × 32 output pixels. Pixel vector r of channel c
// is an FMA chain over taps t < taps starting from +0:
//
//	dc[8r+i] = Σ_t wc[t] · sr[offs[t]+i]   (in t order)
TEXT ·convFwdTileAsm(SB), NOSPLIT, $0-80
	MOVQ taps+0(FP), CX
	MOVQ offs+8(FP), DI
	MOVQ w0+16(FP), SI
	MOVQ w1+24(FP), BX
	MOVQ s0+32(FP), R8
	MOVQ s1+40(FP), R9
	MOVQ s2+48(FP), R10
	MOVQ s3+56(FP), R11

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	TESTQ CX, CX
	JZ    store

loop:
	MOVQ         (DI), AX
	VMOVUPS      (R8)(AX*4), Y8
	VMOVUPS      (R9)(AX*4), Y9
	VMOVUPS      (R10)(AX*4), Y10
	VMOVUPS      (R11)(AX*4), Y11
	VBROADCASTSS (SI), Y12
	VBROADCASTSS (BX), Y13
	VFMADD231PS  Y8, Y12, Y0
	VFMADD231PS  Y9, Y12, Y1
	VFMADD231PS  Y10, Y12, Y2
	VFMADD231PS  Y11, Y12, Y3
	VFMADD231PS  Y8, Y13, Y4
	VFMADD231PS  Y9, Y13, Y5
	VFMADD231PS  Y10, Y13, Y6
	VFMADD231PS  Y11, Y13, Y7
	ADDQ         $8, DI
	ADDQ         $4, SI
	ADDQ         $4, BX
	DECQ         CX
	JNZ          loop

store:
	MOVQ    d0+64(FP), DX
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	MOVQ    d1+72(FP), DX
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	VMOVUPS Y6, 64(DX)
	VMOVUPS Y7, 96(DX)
	VZEROUPPER
	RET

// The input-gradient kernels fill one input row of one to four
// channels. For each tap t (tab[2t] = byte offset into gp, tab[2t+1] =
// byte offset into mask) the column-gradient value is an FMA chain over
// the nq output channels starting from +0 — plane q of the padded
// gradient lies gq bytes after plane q−1, and wc walks channel c's
// tap-major weights — then masked to +0 outside the output and added
// into the row accumulator, which also starts from +0.

// func convBwdData32Asm(taps, nq int, tab *int, gp *float32, gq int, mask *uint32, w0, d0 *float32)
TEXT ·convBwdData32Asm(SB), NOSPLIT, $0-64
	MOVQ taps+0(FP), CX
	MOVQ tab+16(FP), DI
	MOVQ gp+24(FP), R12
	MOVQ gq+32(FP), R13
	MOVQ mask+40(FP), BX
	MOVQ w0+48(FP), R8

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	TESTQ CX, CX
	JZ    store

tap:
	MOVQ   (DI), AX
	MOVQ   R12, SI
	ADDQ   AX, SI
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   nq+8(FP), DX

q:
	VBROADCASTSS (R8), Y8
	VFMADD231PS  (SI), Y8, Y4
	VFMADD231PS  32(SI), Y8, Y5
	VFMADD231PS  64(SI), Y8, Y6
	VFMADD231PS  96(SI), Y8, Y7
	ADDQ         $4, R8
	ADDQ         R13, SI
	DECQ         DX
	JNZ          q

	MOVQ   8(DI), AX
	VANDPS (BX)(AX*1), Y4, Y4
	VANDPS 32(BX)(AX*1), Y5, Y5
	VANDPS 64(BX)(AX*1), Y6, Y6
	VANDPS 96(BX)(AX*1), Y7, Y7
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	ADDQ   $16, DI
	DECQ   CX
	JNZ    tap

store:
	MOVQ    d0+56(FP), DX
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VZEROUPPER
	RET

// func convBwdData16Asm(taps, nq int, tab *int, gp *float32, gq int, mask *uint32, w0, w1, d0, d1 *float32)
TEXT ·convBwdData16Asm(SB), NOSPLIT, $0-80
	MOVQ taps+0(FP), CX
	MOVQ tab+16(FP), DI
	MOVQ gp+24(FP), R12
	MOVQ gq+32(FP), R13
	MOVQ mask+40(FP), BX
	MOVQ w0+48(FP), R8
	MOVQ w1+56(FP), R9

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	TESTQ CX, CX
	JZ    store

tap:
	MOVQ   (DI), AX
	MOVQ   R12, SI
	ADDQ   AX, SI
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   nq+8(FP), DX

q:
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VBROADCASTSS (R8), Y10
	VBROADCASTSS (R9), Y11
	VFMADD231PS  Y8, Y10, Y4
	VFMADD231PS  Y9, Y10, Y5
	VFMADD231PS  Y8, Y11, Y6
	VFMADD231PS  Y9, Y11, Y7
	ADDQ         $4, R8
	ADDQ         $4, R9
	ADDQ         R13, SI
	DECQ         DX
	JNZ          q

	MOVQ    8(DI), AX
	VMOVUPS (BX)(AX*1), Y12
	VMOVUPS 32(BX)(AX*1), Y13
	VANDPS  Y12, Y4, Y4
	VANDPS  Y13, Y5, Y5
	VANDPS  Y12, Y6, Y6
	VANDPS  Y13, Y7, Y7
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	ADDQ    $16, DI
	DECQ    CX
	JNZ     tap

store:
	MOVQ    d0+64(FP), DX
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	MOVQ    d1+72(FP), DX
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, 32(DX)
	VZEROUPPER
	RET

// func convBwdData8Asm(taps, nq int, tab *int, gp *float32, gq int, mask *uint32, w0, w1, w2, w3, d0, d1, d2, d3 *float32)
TEXT ·convBwdData8Asm(SB), NOSPLIT, $0-112
	MOVQ taps+0(FP), CX
	MOVQ tab+16(FP), DI
	MOVQ gp+24(FP), R12
	MOVQ gq+32(FP), R13
	MOVQ mask+40(FP), BX
	MOVQ w0+48(FP), R8
	MOVQ w1+56(FP), R9
	MOVQ w2+64(FP), R10
	MOVQ w3+72(FP), R11

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	TESTQ CX, CX
	JZ    store

tap:
	MOVQ   (DI), AX
	MOVQ   R12, SI
	ADDQ   AX, SI
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   nq+8(FP), DX

q:
	VMOVUPS      (SI), Y8
	VBROADCASTSS (R8), Y9
	VFMADD231PS  Y8, Y9, Y4
	VBROADCASTSS (R9), Y10
	VFMADD231PS  Y8, Y10, Y5
	VBROADCASTSS (R10), Y11
	VFMADD231PS  Y8, Y11, Y6
	VBROADCASTSS (R11), Y12
	VFMADD231PS  Y8, Y12, Y7
	ADDQ         $4, R8
	ADDQ         $4, R9
	ADDQ         $4, R10
	ADDQ         $4, R11
	ADDQ         R13, SI
	DECQ         DX
	JNZ          q

	MOVQ    8(DI), AX
	VMOVUPS (BX)(AX*1), Y13
	VANDPS  Y13, Y4, Y4
	VANDPS  Y13, Y5, Y5
	VANDPS  Y13, Y6, Y6
	VANDPS  Y13, Y7, Y7
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	ADDQ    $16, DI
	DECQ    CX
	JNZ     tap

store:
	MOVQ    d0+80(FP), DX
	VMOVUPS Y0, (DX)
	MOVQ    d1+88(FP), DX
	VMOVUPS Y1, (DX)
	MOVQ    d2+96(FP), DX
	VMOVUPS Y2, (DX)
	MOVQ    d3+104(FP), DX
	VMOVUPS Y3, (DX)
	VZEROUPPER
	RET

// func convDot1x4Asm(rows, blocks, skip int, a, b0, b1, b2, b3, dst *float32)
//
// dotKernel1x4Asm over a strided B: the k axis is rows × blocks
// 16-float blocks, contiguous in a, while each bj skips skip bytes
// after every row of blocks. Accumulators and reduction are those of
// dotKernel1x4Asm, so dst[j] is bit-identical to it on the gathered
// vectors.
TEXT ·convDot1x4Asm(SB), NOSPLIT, $0-72
	MOVQ rows+0(FP), CX
	MOVQ blocks+8(FP), BX
	MOVQ skip+16(FP), R12
	MOVQ a+24(FP), SI
	MOVQ b0+32(FP), R8
	MOVQ b1+40(FP), R9
	MOVQ b2+48(FP), R10
	MOVQ b3+56(FP), R11
	MOVQ dst+64(FP), DI

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

row:
	MOVQ BX, DX

block:
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9

	VMOVUPS     (R8), Y10
	VFMADD231PS Y8, Y10, Y0
	VMOVUPS     32(R8), Y11
	VFMADD231PS Y9, Y11, Y4

	VMOVUPS     (R9), Y12
	VFMADD231PS Y8, Y12, Y1
	VMOVUPS     32(R9), Y13
	VFMADD231PS Y9, Y13, Y5

	VMOVUPS     (R10), Y10
	VFMADD231PS Y8, Y10, Y2
	VMOVUPS     32(R10), Y11
	VFMADD231PS Y9, Y11, Y6

	VMOVUPS     (R11), Y12
	VFMADD231PS Y8, Y12, Y3
	VMOVUPS     32(R11), Y13
	VFMADD231PS Y9, Y13, Y7

	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	DECQ DX
	JNZ  block

	ADDQ R12, R8
	ADDQ R12, R9
	ADDQ R12, R10
	ADDQ R12, R11
	DECQ CX
	JNZ  row

	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3

	VEXTRACTF128 $1, Y0, X8
	VADDPS       X8, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VMOVSS       X0, (DI)

	VEXTRACTF128 $1, Y1, X8
	VADDPS       X8, X1, X1
	VHADDPS      X1, X1, X1
	VHADDPS      X1, X1, X1
	VMOVSS       X1, 4(DI)

	VEXTRACTF128 $1, Y2, X8
	VADDPS       X8, X2, X2
	VHADDPS      X2, X2, X2
	VHADDPS      X2, X2, X2
	VMOVSS       X2, 8(DI)

	VEXTRACTF128 $1, Y3, X8
	VADDPS       X8, X3, X3
	VHADDPS      X3, X3, X3
	VHADDPS      X3, X3, X3
	VMOVSS       X3, 12(DI)

	VZEROUPPER
	RET
