// AVX2 kernels for LaneSource: the block refill and the bulk conversion of
// generator words to centred float32 uniforms. Only reached when
// kernels_amd64.go's feature detection succeeds; the Go loops in lanesrc.go
// are the reference implementations these are tested against.

#include "textflag.h"

// func laneRefillAsm(x *[607]uint64)
//
// x[i] += x[i+334] for i < 273, then x[i] += x[i-273] for 273 <= i < 607,
// four words per VPADDQ. The second loop reads words written at least 270
// positions earlier, so ascending four-word steps see finished values.
TEXT ·laneRefillAsm(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), DI
	XORQ AX, AX                      // byte offset of word i

head:
	VMOVDQU (DI)(AX*1), Y0
	VPADDQ  2672(DI)(AX*1), Y0, Y0   // x[i+334]
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, $2176                   // i = 272
	JLT  head
	MOVQ 2176(DI), BX
	ADDQ 4848(DI), BX                // x[606]
	MOVQ BX, 2176(DI)
	MOVQ $2184, AX                   // i = 273

tail:
	VMOVDQU (DI)(AX*1), Y0
	VPADDQ  -2184(DI)(AX*1), Y0, Y0  // x[i-273]
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, $4840                   // i = 605
	JLT  tail
	MOVQ 4840(DI), BX
	ADDQ 2656(DI), BX                // x[332]
	MOVQ BX, 4840(DI)
	MOVQ 4848(DI), BX
	ADDQ 2664(DI), BX                // x[333]
	MOVQ BX, 4848(DI)
	VZEROUPPER
	RET

DATA laneMask63<>+0(SB)/8, $0x7fffffffffffffff
GLOBL laneMask63<>(SB), RODATA|NOPTR, $8
DATA laneBelowOne<>+0(SB)/8, $0x7ffffffffffffdff // 2^63 - 2^9 - 1
GLOBL laneBelowOne<>(SB), RODATA|NOPTR, $8
DATA laneTwo52<>+0(SB)/8, $0x4330000000000000    // 2^52
GLOBL laneTwo52<>(SB), RODATA|NOPTR, $8
DATA laneTwo84<>+0(SB)/8, $0x4530000000000000    // 2^84
GLOBL laneTwo84<>(SB), RODATA|NOPTR, $8
DATA laneTwo84p52<>+0(SB)/8, $0x4530000000100000 // 2^84 + 2^52
GLOBL laneTwo84p52<>(SB), RODATA|NOPTR, $8
DATA laneTwoM63<>+0(SB)/8, $0x3c00000000000000   // 2^-63
GLOBL laneTwoM63<>(SB), RODATA|NOPTR, $8
DATA laneHalf<>+0(SB)/8, $0x3fe0000000000000     // 0.5
GLOBL laneHalf<>(SB), RODATA|NOPTR, $8

// func laneCentredAsm(dst *float32, x *uint64, groups int64) int64
//
// dst[i] = float32(float64(int64(x[i] & (2^63-1))) / 2^63 - 0.5), four words
// a group, for up to groups groups; returns how many it did. It stops in
// front of a group holding a word that Float64 would round to 1 and redraw
// (masked value above 2^63-2^9-1): the caller walks that group in Go.
//
// AVX2 has no int64 -> float64 conversion. The masked word w = hi*2^32 + lo
// is split: OR-ing lo into the mantissa of 2^52 and hi into that of 2^84
// gives the doubles 2^52+lo and 2^84+hi*2^32 exactly; (2^84+hi*2^32) -
// (2^84+2^52) is exact as well (a multiple of 2^32 below 2^63), and adding
// 2^52+lo to it rounds w once, to nearest even — what CVTSQ2SD does. The
// scaling by 2^-63 is exact; the subtraction and the narrowing are the same
// two roundings the Go expression makes.
TEXT ·laneCentredAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ groups+16(FP), CX
	XORQ AX, AX
	VPBROADCASTQ laneMask63<>(SB), Y8
	VPBROADCASTQ laneBelowOne<>(SB), Y9
	VPBROADCASTQ laneTwo52<>(SB), Y10
	VPBROADCASTQ laneTwo84<>(SB), Y11
	VBROADCASTSD laneTwo84p52<>(SB), Y12
	VBROADCASTSD laneTwoM63<>(SB), Y13
	VBROADCASTSD laneHalf<>(SB), Y14
	TESTQ CX, CX
	JEQ  done

loop:
	VMOVDQU (SI), Y0
	VPAND   Y8, Y0, Y0         // Int63
	VPCMPGTQ Y9, Y0, Y1        // would round to 1
	VPTEST  Y1, Y1
	JNE     done
	VPSRLQ  $32, Y0, Y2
	VPOR    Y11, Y2, Y2        // 2^84 + hi*2^32
	VPBLENDD $0xaa, Y10, Y0, Y3 // 2^52 + lo
	VSUBPD  Y12, Y2, Y2
	VADDPD  Y3, Y2, Y2         // float64(w)
	VMULPD  Y13, Y2, Y2        // Float64
	VSUBPD  Y14, Y2, Y2
	VCVTPD2PSY Y2, X2
	VMOVUPS X2, (DI)
	ADDQ $32, SI
	ADDQ $16, DI
	INCQ AX
	CMPQ AX, CX
	JLT  loop

done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET
