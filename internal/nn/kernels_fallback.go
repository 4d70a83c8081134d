//go:build !amd64

package nn

// Non-amd64 builds always take the portable Go kernels; the stubs below
// are never reached (every call site is guarded by useAVX or useVNNI).

var useAVX, useVNNI = false, false

func gemvColAsm(wt, x, bias, y *float32, rowsBytes, cols int64) {
	panic("nn: gemvColAsm without AVX support")
}

func gemmCol4Asm(wt, x, bias, y *float32, rowsBytes, cols, xStrideBytes, yStrideBytes int64) {
	panic("nn: gemmCol4Asm without AVX support")
}

func vsigAsm(dst, src *float32, n int64, negScale, a, b float32) {
	panic("nn: vsigAsm without AVX support")
}

func matVecInt8Asm(q, xq *int8, rowScale, bias, y *float32, rows, cols int64, xScale float32) {
	panic("nn: matVecInt8Asm without AVX support")
}

func matVecInt8VNNIAsm(q, xq *int8, rowScale, bias, y *float32, rows, cols int64, xScale float32) {
	panic("nn: matVecInt8VNNIAsm without AVX-512 VNNI support")
}

func absMaxFiniteAsm(x *float32, n int64) float32 {
	panic("nn: absMaxFiniteAsm without AVX support")
}

func roundInt8Asm(x *float32, q *int8, n int64, inv float32) {
	panic("nn: roundInt8Asm without AVX support")
}

func laneRefillAsm(x *[laneSrcLen]uint64) {
	panic("nn: laneRefillAsm without AVX support")
}

func laneCentredAsm(dst *float32, x *uint64, groups int64) int64 {
	panic("nn: laneCentredAsm without AVX support")
}

func ModulateF32x8Asm(v *[]float32, u *float32, a *float32, n int64) {
	panic("nn: ModulateF32x8Asm without AVX support")
}
