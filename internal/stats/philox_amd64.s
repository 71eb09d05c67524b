//go:build amd64 && !purego

#include "textflag.h"

// The Philox4x32-10 refill as one SSE2 kernel: the four blocks at counters
// n..n+3 in two register sets of two blocks each, one block per 64-bit
// lane. Counter word i of a set's two blocks sits in the low 32 bits of
// both lanes of one register. PMULULQ (PMULUDQ) multiplies just those low
// halves into full 64-bit products, so a product register is already the
// next round's odd word (its low half is the product's low word, and the
// high half is never read until output), and PSHUFD $0xb1 brings each
// product's high word down for the XORs. A round then leaves the words
// rotated one register along (c0..c3 <- c1, p1, c3', p0), which the
// unrolled rounds follow instead of moving data. High halves hold junk
// until the output step clears them.

// Round multipliers M0 and M1 in the low half of each 64-bit lane.
DATA philoxMul<>+0x00(SB)/8, $0xD2511F53
DATA philoxMul<>+0x08(SB)/8, $0xD2511F53
DATA philoxMul<>+0x10(SB)/8, $0xCD9E8D57
DATA philoxMul<>+0x18(SB)/8, $0xCD9E8D57
GLOBL philoxMul<>(SB), RODATA|NOPTR, $32

// Weyl key increments in the (k0, k1, k0, k1) layout of X12.
DATA philoxWeyl<>+0x00(SB)/4, $0x9E3779B9
DATA philoxWeyl<>+0x04(SB)/4, $0xBB67AE85
DATA philoxWeyl<>+0x08(SB)/4, $0x9E3779B9
DATA philoxWeyl<>+0x0c(SB)/4, $0xBB67AE85
GLOBL philoxWeyl<>(SB), RODATA|NOPTR, $16

// ROUND runs one round on set 1 (words a, b, c, d: c0..c3 of blocks n and
// n+1) and set 2 (e, f, g, h: blocks n+2 and n+3) under the round key
// X12 = (k0, k1, k0, k1), X13 = (k1, k0, k1, k0), with M0 in X10 and M1
// in X11. Afterwards c0..c3 of set 1 are b, c, d, a, and of set 2 f, g,
// h, e.
#define ROUND(a, b, c, d, e, f, g, h) \
	PMULULQ X10, a; \
	PMULULQ X11, c; \
	PMULULQ X10, e; \
	PMULULQ X11, g; \
	PXOR    X12, b; \
	PXOR    X13, d; \
	PXOR    X12, f; \
	PXOR    X13, h; \
	PSHUFD  $0xb1, c, X8; \
	PSHUFD  $0xb1, a, X9; \
	PXOR    X8, b; \
	PXOR    X9, d; \
	PSHUFD  $0xb1, g, X8; \
	PSHUFD  $0xb1, e, X9; \
	PXOR    X8, f; \
	PXOR    X9, h

// BUMP advances the round key by the Weyl increments.
#define BUMP \
	PADDL  philoxWeyl<>(SB), X12; \
	PSHUFD $0xb1, X12, X13

// OUT packs a set's words c0..c3 (registers w0..w3) into its two blocks
// and stores them as four uint64s at off(DI): c0|c1<<32, c2|c3<<32 of the
// first block, then of the second. Clobbers X8.
#define OUT(w0, w1, w2, w3, off) \
	PSLLQ      $32, w1; \
	PSLLQ      $32, w0; \
	PSRLQ      $32, w0; \
	POR        w1, w0; \
	PSLLQ      $32, w3; \
	PSLLQ      $32, w2; \
	PSRLQ      $32, w2; \
	POR        w3, w2; \
	MOVO       w0, X8; \
	PUNPCKLQDQ w2, w0; \
	PUNPCKHQDQ w2, X8; \
	MOVOU      w0, off(DI); \
	MOVOU      X8, off+16(DI)

// func philoxRefill4(buf *[8]uint64, ctr *[4]uint32, key *[2]uint32)
TEXT ·philoxRefill4(SB), NOSPLIT, $0-24
	MOVQ buf+0(FP), DI
	MOVQ ctr+8(FP), SI
	MOVQ key+16(FP), DX

	// Block counters n..n+3 (64-bit, carrying into word 1): X0 and X4
	// hold (lo, hi) of two blocks each; X1 and X5 the same swapped, so
	// the high word sits in each lane's low half.
	MOVQ       0(SI), AX
	MOVQ       AX, X0
	INCQ       AX
	MOVQ       AX, X8
	PUNPCKLQDQ X8, X0
	INCQ       AX
	MOVQ       AX, X4
	INCQ       AX
	MOVQ       AX, X9
	PUNPCKLQDQ X9, X4
	PSHUFD     $0xb1, X0, X1
	PSHUFD     $0xb1, X4, X5

	// Stream and trial words, shared by all four blocks.
	MOVQ   8(SI), X2
	PSHUFD $0x44, X2, X2
	PSHUFD $0xb1, X2, X3
	MOVO   X2, X6
	MOVO   X3, X7

	MOVQ   0(DX), X12
	PSHUFD $0x44, X12, X12
	PSHUFD $0xb1, X12, X13
	MOVOU  philoxMul<>+0x00(SB), X10
	MOVOU  philoxMul<>+0x10(SB), X11

	ROUND(X0, X1, X2, X3, X4, X5, X6, X7)
	BUMP
	ROUND(X1, X2, X3, X0, X5, X6, X7, X4)
	BUMP
	ROUND(X2, X3, X0, X1, X6, X7, X4, X5)
	BUMP
	ROUND(X3, X0, X1, X2, X7, X4, X5, X6)
	BUMP
	ROUND(X0, X1, X2, X3, X4, X5, X6, X7)
	BUMP
	ROUND(X1, X2, X3, X0, X5, X6, X7, X4)
	BUMP
	ROUND(X2, X3, X0, X1, X6, X7, X4, X5)
	BUMP
	ROUND(X3, X0, X1, X2, X7, X4, X5, X6)
	BUMP
	ROUND(X0, X1, X2, X3, X4, X5, X6, X7)
	BUMP
	ROUND(X1, X2, X3, X0, X5, X6, X7, X4)

	// Ten rounds rotate the words by two registers: c0..c3 are X2, X3,
	// X0, X1 (set 1) and X6, X7, X4, X5 (set 2).
	OUT(X2, X3, X0, X1, 0)
	OUT(X6, X7, X4, X5, 32)
	RET
