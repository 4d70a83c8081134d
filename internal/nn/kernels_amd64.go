package nn

// AVX2+FMA fast paths for the inference kernels. The assembly in
// kernels_amd64.s is only entered when the CPU (and the OS, via XCR0)
// supports AVX2, FMA, and YMM state; every other machine takes the
// portable Go kernels, which compute the same function. Within one
// process the dispatch decision is fixed at init, so the per-precision
// bit-exactness contract (same machine, same binary, same output) holds
// on both paths.

var useAVX = detectAVX()

// detectAVX mirrors the runtime's feature detection: AVX2 and FMA in
// CPUID, and OS-enabled XMM+YMM state via XGETBV (guarded by OSXSAVE,
// without which XGETBV would fault).
func detectAVX() bool {
	maxID, _, _, _ := cpuidRaw(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidRaw(1, 0)
	const need = 1<<27 | 1<<28 | 1<<12 // OSXSAVE | AVX | FMA
	if ecx1&need != need {
		return false
	}
	if lo, _ := xgetbv0(); lo&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuidRaw(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// useVNNI adds the 256-bit AVX-512 VNNI int8 dot product on top of useAVX.
var useVNNI = useAVX && detectVNNI()

// detectVNNI reports AVX512F/BW/VL and AVX512_VNNI in CPUID with the
// opmask and ZMM state enabled by the OS; detectAVX has checked the rest.
func detectVNNI() bool {
	if lo, _ := xgetbv0(); lo&0xe6 != 0xe6 { // XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
		return false
	}
	_, ebx7, ecx7, _ := cpuidRaw(7, 0)
	const need = 1<<16 | 1<<30 | 1<<31 // AVX512F | AVX512BW | AVX512VL
	return ebx7&need == need && ecx7&(1<<11) != 0
}

//go:noescape
func cpuidRaw(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (lo, hi uint32)

// gemvColAsm computes y[0:rows] = bias[0:rows] + W·x on a column-major
// weight mirror: wt holds cols consecutive blocks of rowsBytes/4
// float32s (one block per input column), rowsBytes % 32 == 0, cols >= 1.
//
//go:noescape
func gemvColAsm(wt, x, bias, y *float32, rowsBytes, cols int64)

// gemmCol4Asm computes y_b = bias + W·x_b for exactly four input lanes
// over the same column-major weight mirror gemvColAsm uses, loading each
// weight tile once per column and FMAing it against four broadcast x
// elements. Lane b reads x + b·xStrideBytes and writes y + b·yStrideBytes.
// Per lane the per-element operation sequence (bias init, one FMA per
// ascending column) is identical to gemvColAsm, so the two kernels are
// bit-identical per lane.
//
//go:noescape
func gemmCol4Asm(wt, x, bias, y *float32, rowsBytes, cols, xStrideBytes, yStrideBytes int64)

// vsigAsm computes dst[i] = a/(1+e^t)+b with t = clamp(negScale·src[i],
// ±87) for i < n, n % 8 == 0, n >= 8 — the shared core of the
// vectorized sigmoid (negScale,a,b = -1,1,0) and tanh (-2,2,-1).
//
//go:noescape
func vsigAsm(dst, src *float32, n int64, negScale, a, b float32)

// matVecInt8Asm is matVecInt8Go, then bias added row by row unless bias is
// nil, for rows a positive multiple of 4 and cols >= 16; equal to the Go
// loops bit for bit on every int8 input.
//
//go:noescape
func matVecInt8Asm(q, xq *int8, rowScale, bias, y *float32, rows, cols int64, xScale float32)

// matVecInt8VNNIAsm is matVecInt8Asm on AVX-512 VNNI, for rows a positive
// multiple of 4 and any cols >= 1.
//
//go:noescape
func matVecInt8VNNIAsm(q, xq *int8, rowScale, bias, y *float32, rows, cols int64, xScale float32)

// absMaxFiniteAsm returns the largest |x[i]| over the finite x[i], i < n
// (0 if none); n a positive multiple of 8.
//
//go:noescape
func absMaxFiniteAsm(x *float32, n int64) float32

// roundInt8Asm writes q[i] = roundInt8(x[i]*inv) for i < n, n a positive
// multiple of 8.
//
//go:noescape
func roundInt8Asm(x *float32, q *int8, n int64, inv float32)

// laneRefillAsm advances a LaneSource block in place: LaneSource.refill's
// two loops, four words at a time.
//
//go:noescape
func laneRefillAsm(x *[laneSrcLen]uint64)

// laneCentredAsm writes dst[i] = float32(Float64-of-x[i] - 0.5) for up to
// groups groups of four words and returns the number of groups done; it
// stops in front of a group holding a word Float64 would redraw.
//
//go:noescape
func laneCentredAsm(dst *float32, x *uint64, groups int64) int64

// ModulateF32x8Asm is ModulateF32x1 over the eight n-element vectors whose
// slice headers start at v, with vector k's uniforms at u[k*n:] and its
// intensity a[k]; n >= 1. Only ModulateF32Sweep calls it; the capital is for
// the ModulateF32 prefix profiles are bucketed by (see modulate.go).
//
//go:noescape
func ModulateF32x8Asm(v *[]float32, u *float32, a *float32, n int64)
