#include "go_asm.h"
#include "textflag.h"

// func adamSSE2(w, g, m, v []float64, p *AdamParams, skipC1 bool)
//
// Two lanes per iteration, each running the IEEE-754 operations of the
// scalar loop (adam_other.go) in the same order; SSE2 has no fused
// multiply-add, so every product rounds as the scalar statement's does. An
// odd last element runs the same sequence on one lane. Loads and stores are
// unaligned: Go only guarantees 8-byte alignment for []float64.
TEXT ·adamSSE2(SB), NOSPLIT, $0-105
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), DX
	MOVQ v_base+72(FP), BX
	MOVQ p+96(FP), R8
	MOVBLZX skipC1+104(FP), R9

	// Broadcast every coefficient into both lanes of its own register.
	MOVSD AdamParams_L2(R8), X6
	UNPCKLPD X6, X6
	MOVSD AdamParams_Beta1(R8), X7
	UNPCKLPD X7, X7
	MOVSD AdamParams_OneMinusBeta1(R8), X8
	UNPCKLPD X8, X8
	MOVSD AdamParams_Beta2(R8), X9
	UNPCKLPD X9, X9
	MOVSD AdamParams_OneMinusBeta2(R8), X10
	UNPCKLPD X10, X10
	MOVSD AdamParams_C1(R8), X11
	UNPCKLPD X11, X11
	MOVSD AdamParams_C2(R8), X12
	UNPCKLPD X12, X12
	MOVSD AdamParams_Eps(R8), X13
	UNPCKLPD X13, X13
	MOVSD AdamParams_LR(R8), X14
	UNPCKLPD X14, X14

	MOVQ CX, R11
	ANDQ $~1, R11
	XORQ AX, AX
	CMPQ AX, R11
	JGE  tail

loop:
	// gi = g + l2*w
	MOVUPD (DI)(AX*8), X0
	MOVUPD (SI)(AX*8), X1
	MOVAPD X0, X2
	MULPD  X6, X2
	ADDPD  X2, X1

	// mi = beta1*m + omb1*gi
	MOVUPD (DX)(AX*8), X2
	MULPD  X7, X2
	MOVAPD X1, X3
	MULPD  X8, X3
	ADDPD  X3, X2
	MOVUPD X2, (DX)(AX*8)

	// vi = beta2*v + (omb2*gi)*gi
	MOVUPD (BX)(AX*8), X4
	MULPD  X9, X4
	MOVAPD X1, X5
	MULPD  X10, X5
	MULPD  X1, X5
	ADDPD  X5, X4
	MOVUPD X4, (BX)(AX*8)

	// w -= lr*(mi/c1) / (sqrt(vi/c2) + eps)
	DIVPD  X12, X4
	SQRTPD X4, X4
	ADDPD  X13, X4
	TESTQ  R9, R9
	JNZ    scaled
	DIVPD  X11, X2

scaled:
	MULPD  X14, X2
	DIVPD  X4, X2
	SUBPD  X2, X0
	MOVUPD X0, (DI)(AX*8)

	ADDQ $2, AX
	CMPQ AX, R11
	JLT  loop

tail:
	CMPQ AX, CX
	JGE  done
	MOVSD (DI)(AX*8), X0
	MOVSD (SI)(AX*8), X1
	MOVAPD X0, X2
	MULSD  X6, X2
	ADDSD  X2, X1
	MOVSD (DX)(AX*8), X2
	MULSD  X7, X2
	MOVAPD X1, X3
	MULSD  X8, X3
	ADDSD  X3, X2
	MOVSD  X2, (DX)(AX*8)
	MOVSD (BX)(AX*8), X4
	MULSD  X9, X4
	MOVAPD X1, X5
	MULSD  X10, X5
	MULSD  X1, X5
	ADDSD  X5, X4
	MOVSD  X4, (BX)(AX*8)
	DIVSD  X12, X4
	SQRTSD X4, X4
	ADDSD  X13, X4
	TESTQ  R9, R9
	JNZ    tailscaled
	DIVSD  X11, X2

tailscaled:
	MULSD  X14, X2
	DIVSD  X4, X2
	SUBSD  X2, X0
	MOVSD  X0, (DI)(AX*8)

done:
	RET
