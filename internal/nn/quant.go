package nn

import "math"

// Post-training int8 weight quantization for the frozen inference path:
// symmetric (zero-point-free), with an independent scale per output row.
// Activations are quantized dynamically per vector at apply time
// (QuantizeVecInt8 on the layer input), so the int8 backend needs no
// calibration data — the only approximation is the two rounding steps,
// which the kernel property tests bound per row.

// QuantizeVecInt8 symmetrically quantizes x into q (len(q) ≥ len(x)) and
// returns the scale such that x[i] ≈ float32(q[i])·scale. The scale is
// max|x|/127 computed over the finite entries, so it is always finite;
// NaN quantizes to 0 and ±Inf saturates to ±127. An all-zero (or
// all-non-finite) vector returns scale 0 with q zeroed.
func QuantizeVecInt8(x []float32, q []int8) float32 {
	if len(q) < len(x) {
		panic("nn: QuantizeVecInt8 output too short")
	}
	// Both passes are elementwise up to a max, so the AVX2 kernels take the
	// whole blocks of eight and the loops below the rest (everything,
	// without AVX2), with the same result either way.
	n8 := 0
	maxAbs := float32(0)
	if useAVX && len(x) >= 8 {
		n8 = len(x) &^ 7
		maxAbs = absMaxFiniteAsm(&x[0], int64(n8))
	}
	for _, v := range x[n8:] {
		a := v
		if a < 0 {
			a = -a
		}
		// NaN fails both comparisons; Inf is excluded explicitly so the
		// scale stays finite.
		if a > maxAbs && !isInf32(a) {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range x {
			q[i] = 0
		}
		return 0
	}
	inv := 127 / maxAbs
	if n8 > 0 {
		roundInt8Asm(&x[0], &q[0], int64(n8), inv)
	}
	for i := n8; i < len(x); i++ {
		q[i] = roundInt8(x[i] * inv)
	}
	return maxAbs / 127
}

// roundInt8 rounds half away from zero with saturation; NaN maps to 0.
// The explicit guards matter: float-to-int conversion of NaN or
// out-of-range values is implementation-specific in Go.
func roundInt8(v float32) int8 {
	switch {
	case v != v:
		return 0
	case v >= 127:
		return 127
	case v <= -127:
		return -127
	case v >= 0:
		return int8(v + 0.5)
	}
	return int8(v - 0.5)
}

func isInf32(v float32) bool { return v > math.MaxFloat32 || v < -math.MaxFloat32 }

// QuantizeRowsInt8 quantizes a row-major rows×cols float32 matrix with an
// independent symmetric scale per output row (scale-per-output-row keeps
// one outlier weight from crushing the resolution of every other row).
func QuantizeRowsInt8(w []float32, rows, cols int) (q []int8, scales []float32) {
	q = make([]int8, rows*cols)
	scales = make([]float32, rows)
	for r := 0; r < rows; r++ {
		scales[r] = QuantizeVecInt8(w[r*cols:(r+1)*cols], q[r*cols:(r+1)*cols])
	}
	return q, scales
}
