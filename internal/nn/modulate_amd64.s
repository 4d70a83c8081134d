// AVX2 kernel for the stochastic-layer modulation sweep: eight vectors a
// call. Only reached when kernels_amd64.go's feature detection succeeds;
// ModulateF32x1 in modulate.go is the reference it is tested against.

#include "textflag.h"

DATA modAbs<>+0(SB)/4, $0x7fffffff
GLOBL modAbs<>(SB), RODATA|NOPTR, $4
DATA modTiny<>+0(SB)/4, $0x2b8cbccc // float32(1e-12)
GLOBL modTiny<>(SB), RODATA|NOPTR, $4
DATA modOne<>+0(SB)/4, $0x3f800000
GLOBL modOne<>(SB), RODATA|NOPTR, $4
DATA modHalf<>+0(SB)/4, $0x3f000000
GLOBL modHalf<>(SB), RODATA|NOPTR, $4
DATA modTwo<>+0(SB)/4, $0x40000000
GLOBL modTwo<>(SB), RODATA|NOPTR, $4
// Tail masks: 16 bytes from offset 4*(4-r) have the first r dwords set.
DATA modTail<>+0(SB)/8, $0xffffffffffffffff
DATA modTail<>+8(SB)/8, $0xffffffffffffffff
DATA modTail<>+16(SB)/8, $0
DATA modTail<>+24(SB)/8, $0
GLOBL modTail<>(SB), RODATA|NOPTR, $32

// A "row" is one YMM register holding four consecutive elements of vector j
// in its low half and of vector j+4 in its high half. SI is the byte offset
// of those elements. The M forms are for the last, partial group of four:
// X13/Y13 hold its element mask.
#define LOADROW(lo, hi, X, Y) \
	VMOVUPS (lo)(SI*1), X; \
	VINSERTF128 $1, (hi)(SI*1), Y, Y
#define STOREROW(X, Y, lo, hi) \
	VMOVUPS X, (lo)(SI*1); \
	VEXTRACTF128 $1, Y, (hi)(SI*1)
#define LOADROWM(lo, hi, X, Y, XT) \
	VMASKMOVPS (lo)(SI*1), X13, X; \
	VMASKMOVPS (hi)(SI*1), X13, XT; \
	VINSERTF128 $1, XT, Y, Y
#define STOREROWM(X, Y, lo, hi, XT) \
	VMASKMOVPS X, X13, (lo)(SI*1); \
	VEXTRACTF128 $1, Y, XT; \
	VMASKMOVPS XT, X13, (hi)(SI*1)

// SUMROWS adds the four rows Y0..Y3 into the running sums Y14, element by
// element in order. An in-lane 4x4 transpose turns the rows into columns —
// register e holds element e of all eight vectors, vector k in lane k — and
// the columns are added one after the other, so each lane of Y14 sees
// exactly the additions, in exactly the order, of a scalar loop over its
// vector. Clobbers Y0..Y7.
#define SUMROWS \
	VUNPCKLPS Y1, Y0, Y4; \
	VUNPCKHPS Y1, Y0, Y5; \
	VUNPCKLPS Y3, Y2, Y6; \
	VUNPCKHPS Y3, Y2, Y7; \
	VUNPCKLPD Y6, Y4, Y0; \
	VUNPCKHPD Y6, Y4, Y1; \
	VUNPCKLPD Y7, Y5, Y2; \
	VUNPCKHPD Y7, Y5, Y3; \
	VADDPS Y0, Y14, Y14; \
	VADDPS Y1, Y14, Y14; \
	VADDPS Y2, Y14, Y14; \
	VADDPS Y3, Y14, Y14

// SPREAD stores the row constants of the per-vector values in Y: row j is
// value j in the low half and value j+4 in the high half, at off+32*j(SP).
#define SPREAD(Y, off) \
	VPERMILPS $0x00, Y, Y0; \
	VPERMILPS $0x55, Y, Y1; \
	VPERMILPS $0xaa, Y, Y2; \
	VPERMILPS $0xff, Y, Y3; \
	VMOVUPS Y0, off+0(SP); \
	VMOVUPS Y1, off+32(SP); \
	VMOVUPS Y2, off+64(SP); \
	VMOVUPS Y3, off+96(SP)

// NOISEROW is one row of the noise pass: nv = x + a*(u*mean), stored back,
// |nv| left in YV. Two multiplies and an add, each rounded, as the Go loop
// (which the compiler does not fuse on amd64) has them.
#define NOISEROW(ulo, uhi, lo, hi, XU, YU, XV, YV, row) \
	VMOVUPS ulo, XU; \
	VINSERTF128 $1, uhi, YU, YU; \
	VMULPS row+0(SP), YU, YU; \
	VMULPS row+128(SP), YU, YU; \
	LOADROW(lo, hi, XV, YV); \
	VADDPS YU, YV, YV; \
	STOREROW(XV, YV, lo, hi); \
	VANDPS Y15, YV, YV
#define NOISEROWM(ulo, uhi, lo, hi, XU, YU, XV, YV, XT, row) \
	VMASKMOVPS ulo, X13, XU; \
	VMASKMOVPS uhi, X13, XT; \
	VINSERTF128 $1, XT, YU, YU; \
	VMULPS row+0(SP), YU, YU; \
	VMULPS row+128(SP), YU, YU; \
	LOADROWM(lo, hi, XV, YV, XT); \
	VADDPS YU, YV, YV; \
	STOREROWM(XV, YV, lo, hi, XT); \
	VANDPS Y15, YV, YV; \
	VANDPS Y13, YV, YV

#define SCALEROW(lo, hi, X, Y, row) \
	LOADROW(lo, hi, X, Y); \
	VMULPS row(SP), Y, Y; \
	STOREROW(X, Y, lo, hi)
#define SCALEROWM(lo, hi, X, Y, XT, row) \
	LOADROWM(lo, hi, X, Y, XT); \
	VMULPS row(SP), Y, Y; \
	STOREROWM(X, Y, lo, hi, XT)

// func ModulateF32x8Asm(v *[]float32, u *float32, a *float32, n int64)
//
// ModulateF32x1 over eight vectors at once: v points at eight slice headers
// of n elements each, vector k's uniforms are u[k*n:(k+1)*n] and its
// intensity a[k]. Three passes, as in the Go kernels: the |v| sums; the
// noise with the |v| sums after it; the rescale. Element-wise work runs on
// rows, the ordered sums on columns (SUMROWS), the per-vector mean and scale
// as one eight-lane division each.
//
// Frame: 0..127(SP) row constants of the mean, then of the scale;
// 128..255(SP) row constants of the intensity; 256(SP) the byte offset where
// full groups of four end.
TEXT ·ModulateF32x8Asm(SB), NOSPLIT, $264-32
	MOVQ v+0(FP), DI
	MOVQ 0(DI), AX
	MOVQ 24(DI), BX
	MOVQ 48(DI), R8
	MOVQ 72(DI), R9
	MOVQ 96(DI), R10
	MOVQ 120(DI), R11
	MOVQ 144(DI), R12
	MOVQ 168(DI), R13
	MOVQ n+24(FP), R15
	MOVQ R15, CX
	ANDQ $3, CX                  // elements in the partial group
	NEGQ CX
	LEAQ modTail<>+16(SB), DX
	VMOVUPS (DX)(CX*4), X13
	VINSERTF128 $1, X13, Y13, Y13
	MOVQ R15, DX
	ANDQ $-4, DX
	SHLQ $2, DX
	MOVQ DX, 256(SP)
	VBROADCASTSS modAbs<>(SB), Y15

	// Pass 1: Y14 = sum |v|.
	VXORPS Y14, Y14, Y14
	XORQ SI, SI
	JMP  sum1check

sum1:
	LOADROW(AX, R10, X0, Y0)
	LOADROW(BX, R11, X1, Y1)
	LOADROW(R8, R12, X2, Y2)
	LOADROW(R9, R13, X3, Y3)
	VANDPS Y15, Y0, Y0
	VANDPS Y15, Y1, Y1
	VANDPS Y15, Y2, Y2
	VANDPS Y15, Y3, Y3
	SUMROWS
	ADDQ $16, SI

sum1check:
	CMPQ SI, 256(SP)
	JLT  sum1
	TESTQ $3, n+24(FP)
	JEQ  sum1done
	LOADROWM(AX, R10, X0, Y0, X4)
	LOADROWM(BX, R11, X1, Y1, X4)
	LOADROWM(R8, R12, X2, Y2, X4)
	LOADROWM(R9, R13, X3, Y3, X4)
	VANDPS Y15, Y0, Y0
	VANDPS Y15, Y1, Y1
	VANDPS Y15, Y2, Y2
	VANDPS Y15, Y3, Y3
	SUMROWS

sum1done:
	VMOVAPS Y14, Y12             // before
	VCVTSI2SSQ R15, X1, X1
	VBROADCASTSS X1, Y1
	VDIVPS Y1, Y14, Y11          // mean = before / n
	SPREAD(Y11, 0)
	MOVQ a+16(FP), DI
	VMOVUPS (DI), Y11
	SPREAD(Y11, 128)

	// Pass 2: v += a*(u*mean); Y14 = sum |v|. DI and DX walk the uniforms
	// of vectors 0 and 4; R15 and CX are one and three vector strides.
	MOVQ u+8(FP), DI
	SHLQ $2, R15
	LEAQ (DI)(R15*4), DX
	LEAQ (R15)(R15*2), CX
	VXORPS Y14, Y14, Y14
	XORQ SI, SI
	JMP  noisecheck

noise:
	NOISEROW((DI), (DX), AX, R10, X4, Y4, X0, Y0, 0)
	NOISEROW((DI)(R15*1), (DX)(R15*1), BX, R11, X5, Y5, X1, Y1, 32)
	NOISEROW((DI)(R15*2), (DX)(R15*2), R8, R12, X6, Y6, X2, Y2, 64)
	NOISEROW((DI)(CX*1), (DX)(CX*1), R9, R13, X7, Y7, X3, Y3, 96)
	SUMROWS
	ADDQ $16, SI
	ADDQ $16, DI
	ADDQ $16, DX

noisecheck:
	CMPQ SI, 256(SP)
	JLT  noise
	TESTQ $3, n+24(FP)
	JEQ  noisedone
	NOISEROWM((DI), (DX), AX, R10, X4, Y4, X0, Y0, X8, 0)
	NOISEROWM((DI)(R15*1), (DX)(R15*1), BX, R11, X5, Y5, X1, Y1, X8, 32)
	NOISEROWM((DI)(R15*2), (DX)(R15*2), R8, R12, X6, Y6, X2, Y2, X8, 64)
	NOISEROWM((DI)(CX*1), (DX)(CX*1), R9, R13, X7, Y7, X3, Y3, X8, 96)
	SUMROWS

noisedone:
	// scale = after > 1e-12 ? before/after : 1, clamped to [0.5, 2]. The
	// clamps keep a NaN scale, as the Go comparisons do: MAXPS and MINPS
	// return their second source when either is NaN.
	VDIVPS Y14, Y12, Y1          // before / after
	VBROADCASTSS modTiny<>(SB), Y2
	VCMPPS $0x1e, Y2, Y14, Y2    // after > tiny, false for NaN
	VBROADCASTSS modOne<>(SB), Y3
	VBLENDVPS Y2, Y1, Y3, Y3
	VBROADCASTSS modHalf<>(SB), Y1
	VMAXPS Y3, Y1, Y3
	VBROADCASTSS modTwo<>(SB), Y1
	VMINPS Y3, Y1, Y11
	SPREAD(Y11, 0)

	// Pass 3: v *= scale.
	XORQ SI, SI
	JMP  scalecheck

scale:
	SCALEROW(AX, R10, X0, Y0, 0)
	SCALEROW(BX, R11, X1, Y1, 32)
	SCALEROW(R8, R12, X2, Y2, 64)
	SCALEROW(R9, R13, X3, Y3, 96)
	ADDQ $16, SI

scalecheck:
	CMPQ SI, 256(SP)
	JLT  scale
	TESTQ $3, n+24(FP)
	JEQ  done
	SCALEROWM(AX, R10, X0, Y0, X4, 0)
	SCALEROWM(BX, R11, X1, Y1, X4, 32)
	SCALEROWM(R8, R12, X2, Y2, X4, 64)
	SCALEROWM(R9, R13, X3, Y3, X4, 96)

done:
	VZEROUPPER
	RET
