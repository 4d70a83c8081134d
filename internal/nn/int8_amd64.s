// Vector kernels for the int8 backend: the matrix-vector product (AVX2, and
// AVX-512 VNNI) and the two passes of the activation quantizer (AVX2). Only
// reached when kernels_amd64.go's feature detection succeeds; matVecInt8Go
// in kernels.go and the scalar loops of QuantizeVecInt8 in quant.go are the
// references they are tested against, bit for bit.

#include "textflag.h"

// Tail mask: the 16 words loaded from byte offset 2*t keep the last t words
// of a vector and clear the first 16-t.
DATA int8Tail<>+0(SB)/8, $0
DATA int8Tail<>+8(SB)/8, $0
DATA int8Tail<>+16(SB)/8, $0
DATA int8Tail<>+24(SB)/8, $0
DATA int8Tail<>+32(SB)/8, $0xffffffffffffffff
DATA int8Tail<>+40(SB)/8, $0xffffffffffffffff
DATA int8Tail<>+48(SB)/8, $0xffffffffffffffff
DATA int8Tail<>+56(SB)/8, $0xffffffffffffffff
GLOBL int8Tail<>(SB), RODATA|NOPTR, $64

// DOT4 adds the products of the 16 columns at byte offset AX of the four
// rows DI, R11, R12, R13 with the 16 sign-extended x words in xw into the
// rows' accumulators Y0..Y3. Bytes widen to words (VPMOVSXBW) and VPMADDWD
// sums adjacent word products into dwords: at most 2·128·128 = 2^15 a pair,
// so nothing saturates or wraps for any int8 operand, -128 included.
#define DOT4(xw) \
	VPMOVSXBW (DI)(AX*1), Y5; \
	VPMOVSXBW (R11)(AX*1), Y6; \
	VPMOVSXBW (R12)(AX*1), Y7; \
	VPMOVSXBW (R13)(AX*1), Y8; \
	VPMADDWD xw, Y5, Y5; \
	VPMADDWD xw, Y6, Y6; \
	VPMADDWD xw, Y7, Y7; \
	VPMADDWD xw, Y8, Y8; \
	VPADDD Y5, Y0, Y0; \
	VPADDD Y6, Y1, Y1; \
	VPADDD Y7, Y2, Y2; \
	VPADDD Y8, Y3, Y3

// func matVecInt8Asm(q, xq *int8, rowScale, bias, y *float32, rows, cols int64, xScale float32)
//
// y[r] = float32(Σ_c q[r][c]·xq[c]) · rowScale[r] · xScale (+ bias[r] unless
// bias is nil) for a row-major rows×cols matrix, rows a positive multiple of
// 4, cols >= 16. Four rows a pass share each load of x. The sums are exact
// int32, so their order is free; the two float multiplies and the add are
// separate instructions in Go's order.
// The columns past the last whole block of 16 are covered by one more block
// that ENDS at the row's last column — it re-reads columns already summed,
// and the x vector it multiplies with (Y15) has those columns zeroed — so no
// load touches a byte outside q[0:rows·cols] or xq[0:cols].
TEXT ·matVecInt8Asm(SB), NOSPLIT, $0-60
	MOVQ q+0(FP), DI
	MOVQ xq+8(FP), SI
	MOVQ rowScale+16(FP), R14
	MOVQ bias+24(FP), R15
	MOVQ y+32(FP), DX
	MOVQ rows+40(FP), CX
	MOVQ cols+48(FP), BX
	VBROADCASTSS xScale+56(FP), X14
	MOVQ BX, R8
	ANDQ $15, R8               // columns in the partial block
	MOVQ BX, R9
	SUBQ R8, R9                // columns in whole blocks
	LEAQ -16(BX), R10          // where the partial block starts
	LEAQ int8Tail<>(SB), AX
	VPMOVSXBW (SI)(R10*1), Y15
	VPAND (AX)(R8*2), Y15, Y15

rows4:
	LEAQ (DI)(BX*1), R11
	LEAQ (DI)(BX*2), R12
	LEAQ (R11)(BX*2), R13
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ AX, AX

cols16:
	VPMOVSXBW (SI)(AX*1), Y4
	DOT4(Y4)
	ADDQ $16, AX
	CMPQ AX, R9
	JLT  cols16
	TESTQ R8, R8
	JEQ  reduce
	MOVQ R10, AX
	DOT4(Y15)

reduce:
	VPHADDD Y1, Y0, Y0         // rows 0,1: pair sums, per 128-bit half
	VPHADDD Y3, Y2, Y2         // rows 2,3
	VPHADDD Y2, Y0, Y0         // [r0 r1 r2 r3 | r0 r1 r2 r3]
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VCVTDQ2PS X0, X0
	VMULPS (R14), X0, X0       // · rowScale[r..r+3]
	VMULPS X14, X0, X0         // · xScale
	TESTQ R15, R15
	JEQ  store
	VADDPS (R15), X0, X0       // + bias[r..r+3]
	ADDQ $16, R15

store:
	VMOVUPS X0, (DX)
	LEAQ (DI)(BX*4), DI
	ADDQ $16, R14
	ADDQ $16, DX
	SUBQ $4, CX
	JNE  rows4
	VZEROUPPER
	RET

DATA int8Flip<>+0(SB)/4, $0x80808080
GLOBL int8Flip<>(SB), RODATA|NOPTR, $4
DATA int8Ones<>+0(SB)/4, $0x01010101
GLOBL int8Ones<>(SB), RODATA|NOPTR, $4

// VDOT4 is DOT4 on 32 columns with the AVX-512 VNNI dot product, whose
// first factor is unsigned: the row bytes go in with their top bit flipped,
// q+128 as a uint8, and what that adds to the sum comes off in the reduce.
#define VDOT4(LOADQ, xb) \
	LOADQ((DI), Y5); \
	LOADQ((R11), Y6); \
	LOADQ((R12), Y7); \
	LOADQ((R13), Y8); \
	VPDPBUSD xb, Y5, Y0; \
	VPDPBUSD xb, Y6, Y1; \
	VPDPBUSD xb, Y7, Y2; \
	VPDPBUSD xb, Y8, Y3
#define FLIPQ(base, reg) \
	VPXORD base(AX*1), Y12, reg
// The partial block: adding 128 to a byte flips the same bit, and the byte
// add takes a byte mask, under which the bytes past the row are not read.
#define FLIPQTAIL(base, reg) \
	VPADDB.Z base(AX*1), Y12, K1, reg

// func matVecInt8VNNIAsm(q, xq *int8, rowScale, bias, y *float32, rows, cols int64, xScale float32)
//
// matVecInt8Asm's function for rows a positive multiple of 4 and any
// cols >= 1, on 256-bit AVX-512 VNNI (VL, BW): VPDPBUSD sums four
// uint8·int8 products into each dword without saturating. With u = q+128,
// Σ u·x = Σ q·x + 128·Σx in wrapping int32, so each row's sum is its
// VPDPBUSD total less 128·Σx (X13, computed once) — exact for every int8
// operand. The columns past the last whole block of 32 are loaded under a
// byte mask (K1) that zeroes the rest of the register and touches no memory
// there.
TEXT ·matVecInt8VNNIAsm(SB), NOSPLIT, $0-60
	MOVQ q+0(FP), DI
	MOVQ xq+8(FP), SI
	MOVQ rowScale+16(FP), R14
	MOVQ bias+24(FP), R10
	MOVQ y+32(FP), DX
	MOVQ rows+40(FP), R15
	MOVQ cols+48(FP), BX
	VBROADCASTSS xScale+56(FP), X14
	VPBROADCASTD int8Flip<>(SB), Y12
	VPBROADCASTD int8Ones<>(SB), Y11
	MOVQ BX, CX
	ANDQ $31, CX               // columns in the partial block
	MOVQ BX, R9
	SUBQ CX, R9                // columns in whole blocks
	MOVQ $1, R8
	SHLQ CX, R8
	DECQ R8
	KMOVD R8, K1               // the partial block's bytes
	VMOVDQU8.Z (SI)(R9*1), K1, Y15

	// X13 = 128·Σx in every dword.
	VPXOR Y13, Y13, Y13
	VPDPBUSD Y15, Y11, Y13
	XORQ AX, AX
	TESTQ R9, R9
	JEQ  vsumdone

vsum32:
	VPDPBUSD (SI)(AX*1), Y11, Y13
	ADDQ $32, AX
	CMPQ AX, R9
	JLT  vsum32

vsumdone:
	VEXTRACTI128 $1, Y13, X1
	VPADDD X1, X13, X13
	VPSHUFD $0x4e, X13, X1
	VPADDD X1, X13, X13
	VPSHUFD $0xb1, X13, X1
	VPADDD X1, X13, X13
	VPSLLD $7, X13, X13        // the two swaps left Σx in every dword

vrows4:
	LEAQ (DI)(BX*1), R11
	LEAQ (DI)(BX*2), R12
	LEAQ (R11)(BX*2), R13
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ AX, AX
	TESTQ R9, R9
	JEQ  vtail

vcols32:
	VMOVDQU (SI)(AX*1), Y4
	VDOT4(FLIPQ, Y4)
	ADDQ $32, AX
	CMPQ AX, R9
	JLT  vcols32

vtail:
	TESTQ CX, CX
	JEQ  vreduce
	VDOT4(FLIPQTAIL, Y15)

vreduce:
	VPHADDD Y1, Y0, Y0         // as in matVecInt8Asm
	VPHADDD Y3, Y2, Y2
	VPHADDD Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VPSUBD X13, X0, X0         // - 128·Σx
	VCVTDQ2PS X0, X0
	VMULPS (R14), X0, X0
	VMULPS X14, X0, X0
	TESTQ R10, R10
	JEQ  vstore
	VADDPS (R10), X0, X0
	ADDQ $16, R10

vstore:
	VMOVUPS X0, (DX)
	LEAQ (DI)(BX*4), DI
	ADDQ $16, R14
	ADDQ $16, DX
	SUBQ $4, R15
	JNE  vrows4
	VZEROUPPER
	RET

DATA int8Abs<>+0(SB)/4, $0x7fffffff
GLOBL int8Abs<>(SB), RODATA|NOPTR, $4
DATA int8Inf<>+0(SB)/4, $0x7f800000
GLOBL int8Inf<>(SB), RODATA|NOPTR, $4
DATA int8Sign<>+0(SB)/4, $0x80000000
GLOBL int8Sign<>(SB), RODATA|NOPTR, $4
DATA int8Half<>+0(SB)/4, $0x3f000000    // 0.5
GLOBL int8Half<>(SB), RODATA|NOPTR, $4
DATA int8Hi<>+0(SB)/4, $0x42fe0000      // +127.0
GLOBL int8Hi<>(SB), RODATA|NOPTR, $4
DATA int8Lo<>+0(SB)/4, $0xc2fe0000      // -127.0
GLOBL int8Lo<>(SB), RODATA|NOPTR, $4

// func absMaxFiniteAsm(x *float32, n int64) float32
//
// The largest |x[i]| over the finite x[i], i < n, or 0 if there is none;
// n a positive multiple of 8. NaN and ±Inf are the values whose magnitude
// bits are not below Inf's; they are zeroed before the max, and a max is the
// same whatever order it is taken in.
TEXT ·absMaxFiniteAsm(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSS int8Abs<>(SB), Y1
	VBROADCASTSS int8Inf<>(SB), Y2
	VPXOR Y0, Y0, Y0

absloop:
	VPAND (SI), Y1, Y3         // |x|
	VPCMPGTD Y3, Y2, Y4        // Inf's bits > |x|'s: finite
	VPAND Y4, Y3, Y3
	VMAXPS Y3, Y0, Y0
	ADDQ $32, SI
	SUBQ $8, CX
	JNE  absloop
	VEXTRACTF128 $1, Y0, X1
	VMAXPS X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VMAXPS X1, X0, X0
	VPSHUFD $0xb1, X0, X1
	VMAXPS X1, X0, X0
	VMOVSS X0, ret+16(FP)
	VZEROUPPER
	RET

// func roundInt8Asm(x *float32, q *int8, n int64, inv float32)
//
// q[i] = roundInt8(x[i]*inv) for i < n, n a positive multiple of 8, in
// roundInt8's own operations: the float32 product, saturation at ±127, half
// added with the value's sign, truncation. NaN products (which the min and
// max may turn into anything) are zeroed at the end.
TEXT ·roundInt8Asm(SB), NOSPLIT, $0-28
	MOVQ x+0(FP), SI
	MOVQ q+8(FP), DI
	MOVQ n+16(FP), CX
	VBROADCASTSS inv+24(FP), Y8
	VBROADCASTSS int8Hi<>(SB), Y9
	VBROADCASTSS int8Lo<>(SB), Y10
	VBROADCASTSS int8Sign<>(SB), Y11
	VBROADCASTSS int8Half<>(SB), Y12

roundloop:
	VMULPS (SI), Y8, Y0        // t = x*inv
	VCMPPS $7, Y0, Y0, Y1      // t == t: not NaN
	VMINPS Y9, Y0, Y0
	VMAXPS Y10, Y0, Y0
	VPAND Y11, Y0, Y2
	VPOR Y12, Y2, Y2           // 0.5 with t's sign
	VADDPS Y2, Y0, Y0
	VCVTTPS2DQ Y0, Y0
	VPAND Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X2
	VPACKSSDW X2, X0, X0       // eight words, in order
	VPACKSSWB X0, X0, X0       // eight bytes, twice
	VMOVQ X0, (DI)
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JNE  roundloop
	VZEROUPPER
	RET
