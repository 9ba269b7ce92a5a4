//go:build amd64 && !race

#include "textflag.h"

// func kernel16(out, a, b []float32, n, astride, bstride int, skip bool)
//
// out[0:16] = Σ_{k<n} a[k·astride] · b[k·bstride : k·bstride+16], one
// output cell per SSE lane. X0–X3 hold the 16 accumulators for the whole k
// loop, start at +0 and are stored once. Each step broadcasts a[k], rounds
// the four products (MULPS) and then adds them (ADDPS): the scalar loop's
// sequence per cell, in ascending k, never fused. With skip set, a step
// whose a[k] compares equal to zero is left out; UCOMISS reports NaN as
// unordered, so NaN is not skipped. SSE only, so every amd64 CPU runs it.
// run16 has checked every index this reads.
TEXT ·kernel16(SB), NOSPLIT, $0-97
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ n+72(FP), CX
	MOVQ astride+80(FP), R8
	SHLQ $2, R8
	MOVQ bstride+88(FP), R9
	SHLQ $2, R9
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X9, X9
	TESTQ CX, CX
	JLE  store
	CMPB skip+96(FP), $0
	JEQ  dense

sparse:
	MOVSS   (SI), X4
	UCOMISS X9, X4
	JNE     sparseterm
	JPS     sparseterm
	ADDQ    R8, SI
	ADDQ    R9, DX
	DECQ    CX
	JNZ     sparse
	JMP     store

sparseterm:
	SHUFPS $0, X4, X4
	MOVUPS (DX), X5
	MOVUPS 16(DX), X6
	MOVUPS 32(DX), X7
	MOVUPS 48(DX), X8
	MULPS  X4, X5
	MULPS  X4, X6
	MULPS  X4, X7
	MULPS  X4, X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3
	ADDQ   R8, SI
	ADDQ   R9, DX
	DECQ   CX
	JNZ    sparse
	JMP    store

dense:
	MOVSS  (SI), X4
	SHUFPS $0, X4, X4
	MOVUPS (DX), X5
	MOVUPS 16(DX), X6
	MOVUPS 32(DX), X7
	MOVUPS 48(DX), X8
	MULPS  X4, X5
	MULPS  X4, X6
	MULPS  X4, X7
	MULPS  X4, X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3
	ADDQ   R8, SI
	ADDQ   R9, DX
	DECQ   CX
	JNZ    dense

store:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET
