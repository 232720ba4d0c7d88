// AVX2 bodies of the int8 data-path float kernels (int8path.go).
// Selected at runtime behind the same CPUID gate as the GEMM kernels.
//
// As in elementwise_amd64.s, every body repeats its portable Go twin's
// float32 operations in the same order and with the same first (Intel
// src1) operand, and none uses an FMA. Go syntax lists operands in
// reverse Intel order: VMULPS Y0, Y4, Y4 is Y4 = Y4 · Y0. n is a
// positive multiple of 8. AX is the element index.

#include "textflag.h"

// LOOP32T runs BODY(off, R, T) at the four 8-lane offsets of one
// 32-element step while 32 elements remain, then at offset 0 while 8
// remain. R is the value register, T a scratch register.
#define LOOP32T(BODY, top, tail, done) \
	XORQ AX, AX; \
	MOVQ CX, DX; \
	ANDQ $-32, DX; \
	JZ   tail; \
top: \
	BODY(0, Y4, Y8); \
	BODY(32, Y5, Y9); \
	BODY(64, Y6, Y10); \
	BODY(96, Y7, Y11); \
	ADDQ $32, AX; \
	CMPQ AX, DX; \
	JLT  top; \
tail: \
	CMPQ AX, CX; \
	JGE  done; \
	BODY(0, Y4, Y8); \
	ADDQ $8, AX; \
	JMP  tail; \
done: \
	VZEROUPPER; \
	RET

// func maxAbsAsm(src *float32, n int) float32
//
// m = |v| > m ? |v| : m per lane, in four accumulators. |v| clears the
// sign bit, which is -v for every v < 0 and maps −0 to +0. MAXPS
// returns its second (Intel src2) operand, the accumulator, when |v| is
// NaN, so NaN is skipped as v > m skips it. No accumulator ever holds
// NaN or −0, so folding the lanes in any order gives the exact maximum.
TEXT ·maxAbsAsm(SB), NOSPLIT, $0-20
	MOVQ      src+0(FP), SI
	MOVQ      n+8(FP), CX
	VPCMPEQD  Y15, Y15, Y15
	VPSRLD    $1, Y15, Y15      // 0x7fffffff: clears the sign bit
	VXORPS    Y0, Y0, Y0
	VXORPS    Y1, Y1, Y1
	VXORPS    Y2, Y2, Y2
	VXORPS    Y3, Y3, Y3
	XORQ      AX, AX
	MOVQ      CX, DX
	ANDQ      $-32, DX
	JZ        maxabs8

maxabs32:
	VANDPS (SI)(AX*4), Y15, Y4
	VMAXPS Y0, Y4, Y0
	VANDPS 32(SI)(AX*4), Y15, Y5
	VMAXPS Y1, Y5, Y1
	VANDPS 64(SI)(AX*4), Y15, Y6
	VMAXPS Y2, Y6, Y2
	VANDPS 96(SI)(AX*4), Y15, Y7
	VMAXPS Y3, Y7, Y3
	ADDQ   $32, AX
	CMPQ   AX, DX
	JLT    maxabs32

maxabs8:
	CMPQ   AX, CX
	JGE    maxabsfold
	VANDPS (SI)(AX*4), Y15, Y4
	VMAXPS Y0, Y4, Y0
	ADDQ   $8, AX
	JMP    maxabs8

maxabsfold:
	VMAXPS       Y1, Y0, Y0
	VMAXPS       Y3, Y2, Y2
	VMAXPS       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0x4e, X0, X1  // swap the 64-bit halves
	VMAXPS       X1, X0, X0
	VPERMILPS    $0xb1, X0, X1  // swap adjacent lanes
	VMAXPS       X1, X0, X0
	VMOVSS       X0, ret+16(FP)
	VZEROUPPER
	RET

// f = v·inv, then t = f + copysign(0.5, f), truncated by CVTTPS2DQ.
// The twin adds 0.5 when f ≥ 0 and subtracts it otherwise; the two
// agree on every code: for f ≥ +0 and f < 0 the sums are bitwise equal
// (x − 0.5 is x + (−0.5) in IEEE arithmetic), for f = −0 the sums
// ±0.5 both truncate to 0, and for NaN both sums are NaN. CVTTPS2DQ
// truncates as the twin's int32 conversion (CVTTSS2SL) does, both
// giving −2³¹ for NaN and out-of-range values. The saturating packs to
// int16 and int8 clamp at +127 and −128, and PMAXSB raises −128 to
// −127, which is the twin's ±127 clamp. 32 codes per step: the packs
// interleave the four registers' 4-code groups per 128-bit lane, and
// VPERMD by quantPerm restores their order.
DATA quantPerm<>+0(SB)/4, $0
DATA quantPerm<>+4(SB)/4, $4
DATA quantPerm<>+8(SB)/4, $1
DATA quantPerm<>+12(SB)/4, $5
DATA quantPerm<>+16(SB)/4, $2
DATA quantPerm<>+20(SB)/4, $6
DATA quantPerm<>+24(SB)/4, $3
DATA quantPerm<>+28(SB)/4, $7
GLOBL quantPerm<>(SB), RODATA|NOPTR, $32

// QUANT8(off, R) leaves the int32 truncation of 8 lanes in R; Y9 is
// scratch.
#define QUANT8(off, R) \
	VMOVUPS    off(SI)(AX*4), R; \
	VMULPS     Y0, R, R; \
	VANDPS     R, Y2, Y9; \
	VORPS      Y1, Y9, Y9; \
	VADDPS     Y9, R, R; \
	VCVTTPS2DQ R, R

// func quantizeRowsAsm(dst *int8, src *float32, rows, w, dstStride, srcStride int, inv float32)
//
// Quantizes rows rows of w values (w a positive multiple of 8), read
// srcStride values apart from src, into rows dstStride bytes apart at
// dst.
TEXT ·quantizeRowsAsm(SB), NOSPLIT, $0-52
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         rows+16(FP), R10
	MOVQ         w+24(FP), CX
	MOVQ         dstStride+32(FP), R11
	MOVQ         srcStride+40(FP), R12
	SHLQ         $2, R12
	VBROADCASTSS inv+48(FP), Y0
	MOVL         $0x3f000000, R8   // 0.5
	VMOVD        R8, X1
	VPBROADCASTD X1, Y1
	VPCMPEQD     Y2, Y2, Y2
	VPSLLD       $31, Y2, Y2       // sign bit
	VMOVDQU      quantPerm<>(SB), Y3
	MOVL         $0x81818181, R8   // −127 in every byte
	VMOVD        R8, X4
	VPBROADCASTD X4, Y4
	MOVQ         CX, DX
	ANDQ         $-32, DX

quantrow:
	XORQ  AX, AX
	TESTQ DX, DX
	JZ    quant8

quant32:
	QUANT8(0, Y5)
	QUANT8(32, Y6)
	QUANT8(64, Y7)
	QUANT8(96, Y8)
	VPACKSSDW Y6, Y5, Y5
	VPACKSSDW Y8, Y7, Y7
	VPACKSSWB Y7, Y5, Y5
	VPERMD    Y5, Y3, Y5
	VPMAXSB   Y4, Y5, Y5
	VMOVDQU   Y5, (DI)(AX*1)
	ADDQ      $32, AX
	CMPQ      AX, DX
	JLT       quant32

quant8:
	CMPQ         AX, CX
	JGE          quantnext
	QUANT8(0, Y5)
	VEXTRACTI128 $1, Y5, X6
	VPACKSSDW    X6, X5, X5
	VPACKSSWB    X5, X5, X5
	VPMAXSB      X4, X5, X5
	VMOVQ        X5, (DI)(AX*1)
	ADDQ         $8, AX
	JMP          quant8

quantnext:
	ADDQ R11, DI
	ADDQ R12, SI
	DECQ R10
	JNZ  quantrow

	VZEROUPPER
	RET

// dst = float32(v)·mul + shift: CVTDQ2PS rounds to nearest even as the
// twin's CVTSL2SS does, then a multiply and an add.
#define DEQUANT(off, R, T) \
	VCVTDQ2PS off(SI)(AX*4), R; \
	VMULPS    Y0, R, R; \
	VADDPS    Y1, R, R; \
	VMOVUPS   R, off(DI)(AX*4)

// func dequantAsm(dst *float32, src *int32, n int, mul, shift float32)
TEXT ·dequantAsm(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS mul+24(FP), Y0
	VBROADCASTSS shift+28(FP), Y1
	LOOP32T(DEQUANT, deq32, deq8, deqdone)

// DEQUANT, then f < 0 → +0: CMPPS LT_OQ (0x11) is false on NaN and −0,
// and ANDNPS clears exactly the lanes it marks.
#define DEQUANTRELU(off, R, T) \
	VCVTDQ2PS off(SI)(AX*4), R; \
	VMULPS    Y0, R, R; \
	VADDPS    Y1, R, R; \
	VCMPPS    $0x11, Y2, R, T; \
	VANDNPS   R, T, R; \
	VMOVUPS   R, off(DI)(AX*4)

// func dequantReLUAsm(dst *float32, src *int32, n int, mul, shift float32)
TEXT ·dequantReLUAsm(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS mul+24(FP), Y0
	VBROADCASTSS shift+28(FP), Y1
	VXORPS       Y2, Y2, Y2
	LOOP32T(DEQUANTRELU, deqr32, deqr8, deqrdone)

// dst = a + b, then f < 0 → +0 as in DEQUANTRELU.
#define ADDCLAMP(off, R, T) \
	VMOVUPS off(SI)(AX*4), R; \
	VADDPS  off(BX)(AX*4), R, R; \
	VCMPPS  $0x11, Y2, R, T; \
	VANDNPS R, T, R; \
	VMOVUPS R, off(DI)(AX*4)

// func addClampNegAsm(dst, a, b *float32, n int)
TEXT ·addClampNegAsm(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), BX
	MOVQ   n+24(FP), CX
	VXORPS Y2, Y2, Y2
	LOOP32T(ADDCLAMP, addc32, addc8, addcdone)
