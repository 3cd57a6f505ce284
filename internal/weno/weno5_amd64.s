#include "textflag.h"

// Two-lane float64 constants, the same value in both lanes, as the bits
// Go's constant folding gives the literals in weno.go. They are loaded
// with MOVUPD, so the symbol's alignment does not matter.
#define PAIR(off, bits) DATA weno5c<>+off(SB)/8, $bits; DATA weno5c<>+(off+8)(SB)/8, $bits
PAIR(0x00, 0x3ff1555555555555) // 13/12
PAIR(0x10, 0x3fd0000000000000) // 0.25
PAIR(0x20, 0x4008000000000000) // 3
PAIR(0x30, 0x4010000000000000) // 4
PAIR(0x40, 0x3eb0c6f7a0b5ed8d) // Eps = 1e-6
PAIR(0x50, 0x3fb999999999999a) // 0.1
PAIR(0x60, 0x3fe3333333333333) // 0.6
PAIR(0x70, 0x3fd3333333333333) // 0.3
PAIR(0x80, 0x4014000000000000) // 5
PAIR(0x90, 0x4018000000000000) // 6
PAIR(0xa0, 0x401c000000000000) // 7
PAIR(0xb0, 0x4026000000000000) // 11
GLOBL weno5c<>(SB), RODATA|NOPTR, $0xc0

// CURV sets d = 13/12 ((x - 2y) + z)^2, in that order, through t; 2y is
// y + y, which equals 2·y bit for bit.
#define CURV(x, y, z, d, t) \
	MOVAPD y, t; ADDPD t, t; MOVAPD x, d; SUBPD t, d; ADDPD z, d; \
	MOVUPD 0x00(BX), t; MULPD d, t; MULPD d, t; MOVAPD t, d

// SLOPE replaces d by (0.25 d) d through t.
#define SLOPE(d, t) \
	MOVUPD 0x10(BX), t; MULPD d, t; MULPD d, t; MOVAPD t, d

// func weno5Pairs(fhat, f []float64) int
//
// Lane 0 holds interface k and lane 1 interface k+1, so the window
// registers hold M2 = f[k:k+2], M1 = f[k+1:k+3], C = f[k+2:k+4],
// P1 = f[k+3:k+5] and P2 = f[k+4:k+6]. Register use across iterations:
// X0 M2, X1 M1, X2 C, X3 P1, X4 the carried curvature term K0.
TEXT ·weno5Pairs(SB), NOSPLIT, $0-56
	MOVQ fhat_base+0(FP), DI
	MOVQ fhat_len+8(FP), CX
	MOVQ f_base+24(FP), SI
	LEAQ weno5c<>(SB), BX
	XORQ AX, AX
	ANDQ $-2, CX // interfaces filled: the largest even count <= len(fhat)
	JZ   done

	MOVUPD 0(SI), X0
	MOVUPD 8(SI), X1
	MOVUPD 16(SI), X2
	MOVUPD 24(SI), X3
	CURV(X0, X1, X2, X4, X6)

loop:
	MOVUPD 32(SI), X5 // P2

	// Curvature terms: K1 of (M1, C, P1) into X6, K2 of (C, P1, P2) into X7.
	CURV(X1, X2, X3, X6, X8)
	CURV(X2, X3, X5, X7, X8)

	// b0 = K0 + slope of d = (M2 - 4 M1) + 3 C, into X8.
	MOVUPD 0x30(BX), X9
	MULPD  X1, X9
	MOVAPD X0, X8
	SUBPD  X9, X8
	MOVUPD 0x20(BX), X9
	MULPD  X2, X9
	ADDPD  X9, X8
	SLOPE(X8, X9)
	ADDPD  X4, X8

	// b1 = K1 + slope of d = M1 - P1, into X9.
	MOVAPD X1, X9
	SUBPD  X3, X9
	SLOPE(X9, X10)
	ADDPD  X6, X9

	// b2 = K2 + slope of d = (3 C - 4 P1) + P2, into X10.
	MOVUPD 0x20(BX), X10
	MULPD  X2, X10
	MOVUPD 0x30(BX), X11
	MULPD  X3, X11
	SUBPD  X11, X10
	ADDPD  X5, X10
	SLOPE(X10, X11)
	ADDPD  X7, X10

	// The next pair's K0 is this pair's K2.
	MOVAPD X7, X4

	// a_i = d_i / ((Eps + b_i)(Eps + b_i)) into X6, X7, X8.
	MOVUPD 0x40(BX), X11
	ADDPD  X11, X8
	MULPD  X8, X8
	MOVUPD 0x50(BX), X6
	DIVPD  X8, X6
	ADDPD  X11, X9
	MULPD  X9, X9
	MOVUPD 0x60(BX), X7
	DIVPD  X9, X7
	ADDPD  X11, X10
	MULPD  X10, X10
	MOVUPD 0x70(BX), X8
	DIVPD  X10, X8

	// s = (a0 + a1) + a2 and w_i = a_i / s, in place.
	MOVAPD X6, X9
	ADDPD  X7, X9
	ADDPD  X8, X9
	DIVPD  X9, X6
	DIVPD  X9, X7
	DIVPD  X9, X8

	// q0 = ((2 M2 - 7 M1) + 11 C) / 6 into X9.
	MOVUPD 0x90(BX), X12
	MOVAPD X0, X9
	ADDPD  X9, X9
	MOVUPD 0xa0(BX), X10
	MULPD  X1, X10
	SUBPD  X10, X9
	MOVUPD 0xb0(BX), X10
	MULPD  X2, X10
	ADDPD  X10, X9
	DIVPD  X12, X9

	// q1 = ((5 C - M1) + 2 P1) / 6 into X10; 5 C - M1 is -M1 + 5 C.
	MOVUPD 0x80(BX), X10
	MULPD  X2, X10
	SUBPD  X1, X10
	MOVAPD X3, X11
	ADDPD  X11, X11
	ADDPD  X11, X10
	DIVPD  X12, X10

	// q2 = ((2 C + 5 P1) - P2) / 6 into X11.
	MOVAPD X2, X11
	ADDPD  X11, X11
	MOVUPD 0x80(BX), X13
	MULPD  X3, X13
	ADDPD  X13, X11
	SUBPD  X5, X11
	DIVPD  X12, X11

	// f̂ = (w0 q0 + w1 q1) + w2 q2.
	MULPD  X9, X6
	MULPD  X10, X7
	ADDPD  X7, X6
	MULPD  X11, X8
	ADDPD  X8, X6
	MOVUPD X6, (DI)

	// Slide the window two cells: f[k+6] is the highest index read.
	MOVAPD X2, X0
	MOVAPD X3, X1
	MOVAPD X5, X2
	MOVUPD 40(SI), X3

	ADDQ $16, SI
	ADDQ $16, DI
	ADDQ $2, AX
	CMPQ AX, CX
	JLT  loop

done:
	MOVQ AX, ret+48(FP)
	RET
