#include "textflag.h"

// AVX2 forms of the loops in kernels.go. Go assembly lists operands
// source-first, so "VADDPD Y1, Y2, Y3" is Y3 = Y2 + Y1: every add and
// multiply below keeps the left operand of the Go expression it replaces
// in the middle slot. There is no FMA: each product is rounded before it
// is added, as in the generic loops. Vector bodies run four elements per
// step; the scalar tails use the VEX scalar forms of the same
// instructions. Every kernel ends with VZEROUPPER before returning to
// SSE code.

// func axpyAVX2(v, x []float64, s float64)
// v[i] = v[i] + x[i]*s
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         v_base+0(FP), DI
	MOVQ         v_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD s+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           axpytail

axpyloop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD (DI)(AX*8), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      axpyloop

axpytail:
	CMPQ AX, CX
	JAE  axpydone

axpytailloop:
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD (DI)(AX*8), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     axpytailloop

axpydone:
	VZEROUPPER
	RET

// func add4AVX2(dst, a, b, c, e []float64)
// dst[i] = dst[i] + a[i] + b[i] + c[i] + e[i], summed left to right
TEXT ·add4AVX2(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), R8
	MOVQ b_base+48(FP), R9
	MOVQ c_base+72(FP), R10
	MOVQ e_base+96(FP), R11
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	JZ   add4tail

add4loop:
	VMOVUPD (DI)(AX*8), Y0
	VADDPD  (R8)(AX*8), Y0, Y0
	VADDPD  (R9)(AX*8), Y0, Y0
	VADDPD  (R10)(AX*8), Y0, Y0
	VADDPD  (R11)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      add4loop

add4tail:
	CMPQ AX, CX
	JAE  add4done

add4tailloop:
	VMOVSD (DI)(AX*8), X0
	VADDSD (R8)(AX*8), X0, X0
	VADDSD (R9)(AX*8), X0, X0
	VADDSD (R10)(AX*8), X0, X0
	VADDSD (R11)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     add4tailloop

add4done:
	VZEROUPPER
	RET

// func add1AVX2(dst, v []float64)
// dst[i] = dst[i] + v[i]
TEXT ·add1AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ v_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	JZ   add1tail

add1loop:
	VMOVUPD (DI)(AX*8), Y0
	VADDPD  (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      add1loop

add1tail:
	CMPQ AX, CX
	JAE  add1done

add1tailloop:
	VMOVSD (DI)(AX*8), X0
	VADDSD (SI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     add1tailloop

add1done:
	VZEROUPPER
	RET

// func scaleByAVX2(dst []float64, s float64)
// dst[i] = dst[i] * s
TEXT ·scaleByAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSD s+24(FP), Y1
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           scaletail

scaleloop:
	VMOVUPD (DI)(AX*8), Y0
	VMULPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      scaleloop

scaletail:
	CMPQ AX, CX
	JAE  scaledone

scaletailloop:
	VMOVSD (DI)(AX*8), X0
	VMULSD X1, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     scaletailloop

scaledone:
	VZEROUPPER
	RET

// func update1AVX2(grad, o, h []float64, coef float64)
// grad[i] = grad[i] + coef*o[i]; o[i] = o[i] + coef*h[i]
TEXT ·update1AVX2(SB), NOSPLIT, $0-80
	MOVQ         grad_base+0(FP), DI
	MOVQ         grad_len+8(FP), CX
	MOVQ         o_base+24(FP), SI
	MOVQ         h_base+48(FP), BX
	VBROADCASTSD coef+72(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           update1tail

update1loop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y1, Y0, Y2
	VMOVUPD (DI)(AX*8), Y3
	VADDPD  Y2, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	VMULPD  (BX)(AX*8), Y0, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (SI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      update1loop

update1tail:
	CMPQ AX, CX
	JAE  update1done

update1tailloop:
	VMOVSD (SI)(AX*8), X1
	VMULSD X1, X0, X2
	VMOVSD (DI)(AX*8), X3
	VADDSD X2, X3, X3
	VMOVSD X3, (DI)(AX*8)
	VMULSD (BX)(AX*8), X0, X2
	VADDSD X2, X1, X1
	VMOVSD X1, (SI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     update1tailloop

update1done:
	VZEROUPPER
	RET

// UPDATE4PAIR applies pair j's step to one vector (or, with the scalar
// forms, one element) of four lanes: grad (acc) += g*o; o += g*h.
// g is the pair's broadcast gradient scale, row its output row, h the
// loaded hidden values, and t, u scratch registers.
#define UPDATE4PAIR(LOAD, MUL, ADD, STORE, g, row, acc, h, t, u) \
	LOAD  (row)(AX*8), t; \
	MUL   t, g, u;       \
	ADD   u, acc, acc;   \
	MUL   h, g, u;       \
	ADD   u, t, t;       \
	STORE t, (row)(AX*8)

// func update4AVX2(grad []float64, o *[4][]float64, h []float64, coef *[4]float64)
// for j = 0..3 in order: grad[i] = grad[i] + coef[j]*o[j][i]; o[j][i] = o[j][i] + coef[j]*h[i]
TEXT ·update4AVX2(SB), NOSPLIT, $0-64
	MOVQ         grad_base+0(FP), DI
	MOVQ         grad_len+8(FP), CX
	MOVQ         o+24(FP), BX
	MOVQ         0(BX), R8
	MOVQ         24(BX), R9
	MOVQ         48(BX), R10
	MOVQ         72(BX), R11
	MOVQ         h_base+32(FP), SI
	MOVQ         coef+56(FP), BX
	VBROADCASTSD 0(BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           update4tail

update4loop:
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD (SI)(AX*8), Y5
	UPDATE4PAIR(VMOVUPD, VMULPD, VADDPD, VMOVUPD, Y0, R8, Y4, Y5, Y6, Y7)
	UPDATE4PAIR(VMOVUPD, VMULPD, VADDPD, VMOVUPD, Y1, R9, Y4, Y5, Y8, Y9)
	UPDATE4PAIR(VMOVUPD, VMULPD, VADDPD, VMOVUPD, Y2, R10, Y4, Y5, Y10, Y11)
	UPDATE4PAIR(VMOVUPD, VMULPD, VADDPD, VMOVUPD, Y3, R11, Y4, Y5, Y12, Y13)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      update4loop

update4tail:
	CMPQ AX, CX
	JAE  update4done

update4tailloop:
	VMOVSD (DI)(AX*8), X4
	VMOVSD (SI)(AX*8), X5
	UPDATE4PAIR(VMOVSD, VMULSD, VADDSD, VMOVSD, X0, R8, X4, X5, X6, X7)
	UPDATE4PAIR(VMOVSD, VMULSD, VADDSD, VMOVSD, X1, R9, X4, X5, X8, X9)
	UPDATE4PAIR(VMOVSD, VMULSD, VADDSD, VMOVSD, X2, R10, X4, X5, X10, X11)
	UPDATE4PAIR(VMOVSD, VMULSD, VADDSD, VMOVSD, X3, R11, X4, X5, X12, X13)
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     update4tailloop

update4done:
	VZEROUPPER
	RET

// DOT4STEP adds one step of four pairs' dot products: acc = acc + h*col,
// lane j holding pair j's sum.
#define DOT4STEP(h, col, acc, t) \
	VMULPD col, h, t; \
	VADDPD t, acc, acc

// TRANSPOSE4 loads elements i..i+3 (AX = i) of rows r0..r3 and leaves
// column k (element i+k of the four rows, in row order) in ck.
#define TRANSPOSE4(r0, r1, r2, r3, c0, c1, c2, c3) \
	VMOVUPD     (r0)(AX*8), X12;            \
	VINSERTF128 $1, (r2)(AX*8), Y12, Y12;   \
	VMOVUPD     (r1)(AX*8), X13;            \
	VINSERTF128 $1, (r3)(AX*8), Y13, Y13;   \
	VMOVUPD     16(r0)(AX*8), X14;          \
	VINSERTF128 $1, 16(r2)(AX*8), Y14, Y14; \
	VMOVUPD     16(r1)(AX*8), X15;          \
	VINSERTF128 $1, 16(r3)(AX*8), Y15, Y15; \
	VUNPCKLPD   Y13, Y12, c0;               \
	VUNPCKHPD   Y13, Y12, c1;               \
	VUNPCKLPD   Y15, Y14, c2;               \
	VUNPCKHPD   Y15, Y14, c3

// GATHER4 loads element i (AX = i) of rows r0..r3 into the lanes of c.
#define GATHER4(r0, r1, r2, r3, c, x, t) \
	VMOVSD      (r0)(AX*8), x;      \
	VMOVHPD     (r1)(AX*8), x, x;   \
	VMOVSD      (r2)(AX*8), t;      \
	VMOVHPD     (r3)(AX*8), t, t;   \
	VINSERTF128 $1, t, c, c

// func dot8AVX2(dots *[8]float64, h []float64, o *[8][]float64)
// dots[j] = Σ h[i]*o[j][i], left to right from +0; lane j of Y0 holds
// pair j's sum, lane j of Y1 pair 4+j's.
TEXT ·dot8AVX2(SB), NOSPLIT, $0-40
	MOVQ   h_base+8(FP), SI
	MOVQ   h_len+16(FP), CX
	MOVQ   o+32(FP), DI
	MOVQ   0(DI), R8
	MOVQ   24(DI), R9
	MOVQ   48(DI), R10
	MOVQ   72(DI), R11
	MOVQ   96(DI), R12
	MOVQ   120(DI), R13
	MOVQ   144(DI), BX
	MOVQ   168(DI), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   AX, AX
	MOVQ   CX, DI
	ANDQ   $-4, DI
	JZ     dot8tail

dot8loop:
	VBROADCASTSD (SI)(AX*8), Y2
	VBROADCASTSD 8(SI)(AX*8), Y3
	VBROADCASTSD 16(SI)(AX*8), Y4
	VBROADCASTSD 24(SI)(AX*8), Y5
	TRANSPOSE4(R8, R9, R10, R11, Y6, Y7, Y8, Y9)
	DOT4STEP(Y2, Y6, Y0, Y10)
	DOT4STEP(Y3, Y7, Y0, Y11)
	DOT4STEP(Y4, Y8, Y0, Y10)
	DOT4STEP(Y5, Y9, Y0, Y11)
	TRANSPOSE4(R12, R13, BX, DX, Y6, Y7, Y8, Y9)
	DOT4STEP(Y2, Y6, Y1, Y10)
	DOT4STEP(Y3, Y7, Y1, Y11)
	DOT4STEP(Y4, Y8, Y1, Y10)
	DOT4STEP(Y5, Y9, Y1, Y11)
	ADDQ $4, AX
	CMPQ AX, DI
	JB   dot8loop

dot8tail:
	CMPQ AX, CX
	JAE  dot8done

dot8tailloop:
	VBROADCASTSD (SI)(AX*8), Y2
	GATHER4(R8, R9, R10, R11, Y6, X6, X7)
	DOT4STEP(Y2, Y6, Y0, Y10)
	GATHER4(R12, R13, BX, DX, Y6, X6, X7)
	DOT4STEP(Y2, Y6, Y1, Y10)
	INCQ AX
	CMPQ AX, CX
	JB   dot8tailloop

dot8done:
	MOVQ    dots+0(FP), DI
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
