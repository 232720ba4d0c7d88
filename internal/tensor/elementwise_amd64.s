// AVX2 bodies of the elementwise kernels (elementwise.go). Selected at
// runtime behind the same CPUID gate as the GEMM kernels.
//
// Every body repeats its portable Go twin's float32 operations in the
// same order and with the same first (Intel src1) operand, so a NaN
// operand propagates identically; none uses an FMA. Go syntax lists
// operands in reverse Intel order: VSUBPS Y5, Y1, Y1 is Y1 = Y1 − Y5.
// n is a positive multiple of 8; the main loop takes 32 elements, the
// tail loop 8. AX is the element index.

#include "textflag.h"

// LOOP32 runs BODY at the four 8-lane offsets of one 32-element step
// while 32 elements remain, then at offset 0 while 8 remain.
#define LOOP32(BODY, top, tail, done) \
	XORQ AX, AX; \
	MOVQ CX, DX; \
	ANDQ $-32, DX; \
	JZ   tail; \
top: \
	BODY(0, Y1); \
	BODY(32, Y2); \
	BODY(64, Y3); \
	BODY(96, Y4); \
	ADDQ $32, AX; \
	CMPQ AX, DX; \
	JLT  top; \
tail: \
	CMPQ AX, CX; \
	JGE  done; \
	BODY(0, Y1); \
	ADDQ $8, AX; \
	JMP  tail; \
done: \
	VZEROUPPER; \
	RET

// dst = max(src, +0) with +0 as Intel's second source: MAXPS returns
// the second source when either input is NaN or both are zero, so NaN
// and −0 give +0, exactly like v > 0 ? v : 0.
#define RELU(off, R) \
	VMOVUPS off(SI)(AX*4), R; \
	VMAXPS  Y0, R, R; \
	VMOVUPS R, off(DI)(AX*4)

// func reluAsm(dst, src *float32, n int)
TEXT ·reluAsm(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPS Y0, Y0, Y0
	LOOP32(RELU, relu32, relu8, reludone)

// grad &= (out > 0): CMPPS GT_OQ (0x1e) is false for NaN, so the
// gradient survives exactly where !(out > 0) is false.
#define RELUBWD(off, R) \
	VMOVUPS off(SI)(AX*4), R; \
	VCMPPS  $0x1e, Y0, R, R; \
	VANDPS  off(DI)(AX*4), R, R; \
	VMOVUPS R, off(DI)(AX*4)

// func reluBackwardAsm(grad, out *float32, n int)
TEXT ·reluBackwardAsm(SB), NOSPLIT, $0-24
	MOVQ   grad+0(FP), DI
	MOVQ   out+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPS Y0, Y0, Y0
	LOOP32(RELUBWD, rbwd32, rbwd8, rbwddone)

// dst = max(a + b, +0).
#define ADDRELU(off, R) \
	VMOVUPS off(SI)(AX*4), R; \
	VADDPS  off(BX)(AX*4), R, R; \
	VMAXPS  Y0, R, R; \
	VMOVUPS R, off(DI)(AX*4)

// func addReLUAsm(dst, a, b *float32, n int)
TEXT ·addReLUAsm(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), BX
	MOVQ   n+24(FP), CX
	VXORPS Y0, Y0, Y0
	LOOP32(ADDRELU, addrelu32, addrelu8, addreludone)

// dst = dst + src·s, multiply then add (Y5 holds the product, so dst
// stays the add's first source as in dst[i] += s * src[i]).
#define AXPY(off, R) \
	VMOVUPS off(SI)(AX*4), Y5; \
	VMULPS  Y0, Y5, Y5; \
	VMOVUPS off(DI)(AX*4), R; \
	VADDPS  Y5, R, R; \
	VMOVUPS R, off(DI)(AX*4)

// func axpyAsm(dst, src *float32, n int, s float32)
TEXT ·axpyAsm(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS s+24(FP), Y0
	LOOP32(AXPY, axpy32, axpy8, axpydone)

// dst = ((src − mean)·istd)·gamma + beta.
#define BNAFFINE(off, R) \
	VMOVUPS off(SI)(AX*4), R; \
	VSUBPS  Y6, R, R; \
	VMULPS  Y7, R, R; \
	VMULPS  Y8, R, R; \
	VADDPS  Y9, R, R; \
	VMOVUPS R, off(DI)(AX*4)

// func bnAffineAsm(dst, src *float32, n int, mean, istd, gamma, beta float32)
TEXT ·bnAffineAsm(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS mean+24(FP), Y6
	VBROADCASTSS istd+28(FP), Y7
	VBROADCASTSS gamma+32(FP), Y8
	VBROADCASTSS beta+36(FP), Y9
	LOOP32(BNAFFINE, bnaff32, bnaff8, bnaffdone)

// dst = src·s.
#define SCALE(off, R) \
	VMOVUPS off(SI)(AX*4), R; \
	VMULPS  Y0, R, R; \
	VMOVUPS R, off(DI)(AX*4)

// func scaleAsm(dst, src *float32, n int, s float32)
TEXT ·scaleAsm(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS s+24(FP), Y0
	LOOP32(SCALE, scale32, scale8, scaledone)

// dst = ((dy − meanG) − ((x − mean)·istd)·meanGX)·coef, x̂ in Y5.
#define BNBWD(off, R) \
	VMOVUPS off(BX)(AX*4), Y5; \
	VSUBPS  Y6, Y5, Y5; \
	VMULPS  Y7, Y5, Y5; \
	VMOVUPS off(SI)(AX*4), R; \
	VSUBPS  Y8, R, R; \
	VMULPS  Y9, Y5, Y5; \
	VSUBPS  Y5, R, R; \
	VMULPS  Y10, R, R; \
	VMOVUPS R, off(DI)(AX*4)

// func bnBackwardAsm(dst, dy, x *float32, n int, mean, istd, meanG, meanGX, coef float32)
TEXT ·bnBackwardAsm(SB), NOSPLIT, $0-52
	MOVQ         dst+0(FP), DI
	MOVQ         dy+8(FP), SI
	MOVQ         x+16(FP), BX
	MOVQ         n+24(FP), CX
	VBROADCASTSS mean+32(FP), Y6
	VBROADCASTSS istd+36(FP), Y7
	VBROADCASTSS meanG+40(FP), Y8
	VBROADCASTSS meanGX+44(FP), Y9
	VBROADCASTSS coef+48(FP), Y10
	LOOP32(BNBWD, bnbwd32, bnbwd8, bnbwddone)

// The two reductions below keep channel 0 in lane 0 and channel 1 in
// lane 1 of each float64 accumulator (X0, X1), and add one pixel
// position at a time, in order: every channel's chain of adds is the
// one its scalar twin runs, only both chains advance per instruction.
// n is a positive multiple of 4. For 4 pixels at a time, UNPCKL/HPS
// pair the two channels' floats ([c0 j, c1 j, c0 j+1, c1 j+1] and the
// same for j+2, j+3), CVTPS2PD widens them, and each 128-bit half is
// one position.

// ADD4(XV, YV, XW, YW, A) adds the four positions held in YV (j, j+1)
// and YW (j+2, j+3) to accumulator A in order; XV and XW name the low
// halves of YV and YW, which are clobbered.
#define ADD4(XV, YV, XW, YW, A) \
	VADDPD       XV, A, A; \
	VEXTRACTF128 $1, YV, XV; \
	VADDPD       XV, A, A; \
	VADDPD       XW, A, A; \
	VEXTRACTF128 $1, YW, XW; \
	VADDPD       XW, A, A

// func bnStatSums2Asm(acc *[4]float64, r0, r1 *float32, n int)
TEXT ·bnStatSums2Asm(SB), NOSPLIT, $0-32
	MOVQ    acc+0(FP), DX
	MOVQ    r0+8(FP), SI
	MOVQ    r1+16(FP), DI
	MOVQ    n+24(FP), CX
	VMOVUPD (DX), X0         // Σx: channel 0, channel 1
	VMOVUPD 16(DX), X1       // Σx²
	XORQ    AX, AX

stats4:
	VMOVUPS   (SI)(AX*4), X2
	VMOVUPS   (DI)(AX*4), X3
	VUNPCKLPS X3, X2, X4
	VUNPCKHPS X3, X2, X5
	VCVTPS2PD X4, Y4
	VCVTPS2PD X5, Y5
	VMULPD    Y4, Y4, Y6
	VMULPD    Y5, Y5, Y7
	ADD4(X4, Y4, X5, Y5, X0)
	ADD4(X6, Y6, X7, Y7, X1)
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       stats4

	VMOVUPD X0, (DX)
	VMOVUPD X1, 16(DX)
	VZEROUPPER
	RET

// func bnGradSums2Asm(acc *[4]float64, g0, g1, x0, x1 *float32, n int, mean0, istd0, mean1, istd1 float32)
TEXT ·bnGradSums2Asm(SB), NOSPLIT, $0-64
	MOVQ         acc+0(FP), DX
	MOVQ         g0+8(FP), SI
	MOVQ         g1+16(FP), DI
	MOVQ         x0+24(FP), R8
	MOVQ         x1+32(FP), R9
	MOVQ         n+40(FP), CX
	VBROADCASTSS mean0+48(FP), X12
	VBROADCASTSS istd0+52(FP), X13
	VBROADCASTSS mean1+56(FP), X14
	VBROADCASTSS istd1+60(FP), X15
	VMOVUPD      (DX), X0        // Σdy: channel 0, channel 1
	VMOVUPD      16(DX), X1      // Σdy·x̂
	XORQ         AX, AX

grad4:
	VMOVUPS   (R8)(AX*4), X2     // x̂ = (x − mean)·istd in float32
	VSUBPS    X12, X2, X2
	VMULPS    X13, X2, X2
	VMOVUPS   (R9)(AX*4), X3
	VSUBPS    X14, X3, X3
	VMULPS    X15, X3, X3
	VUNPCKLPS X3, X2, X8
	VUNPCKHPS X3, X2, X9
	VCVTPS2PD X8, Y8
	VCVTPS2PD X9, Y9
	VMOVUPS   (SI)(AX*4), X2
	VMOVUPS   (DI)(AX*4), X3
	VUNPCKLPS X3, X2, X6
	VUNPCKHPS X3, X2, X7
	VCVTPS2PD X6, Y6
	VCVTPS2PD X7, Y7
	VMULPD    Y8, Y6, Y10        // dy·x̂, exact
	VMULPD    Y9, Y7, Y11
	ADD4(X6, Y6, X7, Y7, X0)
	ADD4(X10, Y10, X11, Y11, X1)
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       grad4

	VMOVUPD X0, (DX)
	VMOVUPD X1, 16(DX)
	VZEROUPPER
	RET
