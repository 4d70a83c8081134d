package nn

import "math"

// Inference kernels: cache-blocked float32 and int8 matrix-vector products
// plus fast float32 activations. These back the frozen inference path
// (core.Model.Freeze); training stays on the float64 layers. The kernels
// are deterministic — no data-dependent branching, no parallel reduction —
// so a frozen model's output is a pure function of (weights, input) and
// the per-precision bit-exactness contract holds.

// MatVecF32 computes y = A·x for a row-major rows×cols matrix, blocked
// over 4 output rows so each pass streams four weight rows against one
// load of x, with the inner column loop unrolled 4×. y must have at least
// rows elements; only y[:rows] is written.
func MatVecF32(a []float32, rows, cols int, x, y []float32) {
	if len(a) < rows*cols || len(x) < cols || len(y) < rows {
		panic("nn: MatVecF32 dimension mismatch")
	}
	x = x[:cols]
	r := 0
	for ; r+4 <= rows; r += 4 {
		r0 := a[(r+0)*cols : (r+1)*cols]
		r1 := a[(r+1)*cols : (r+2)*cols]
		r2 := a[(r+2)*cols : (r+3)*cols]
		r3 := a[(r+3)*cols : (r+4)*cols]
		var s0, s1, s2, s3 float32
		c := 0
		for ; c+4 <= cols; c += 4 {
			x0, x1, x2, x3 := x[c], x[c+1], x[c+2], x[c+3]
			s0 += r0[c]*x0 + r0[c+1]*x1 + r0[c+2]*x2 + r0[c+3]*x3
			s1 += r1[c]*x0 + r1[c+1]*x1 + r1[c+2]*x2 + r1[c+3]*x3
			s2 += r2[c]*x0 + r2[c+1]*x1 + r2[c+2]*x2 + r2[c+3]*x3
			s3 += r3[c]*x0 + r3[c+1]*x1 + r3[c+2]*x2 + r3[c+3]*x3
		}
		for ; c < cols; c++ {
			xv := x[c]
			s0 += r0[c] * xv
			s1 += r1[c] * xv
			s2 += r2[c] * xv
			s3 += r3[c] * xv
		}
		y[r], y[r+1], y[r+2], y[r+3] = s0, s1, s2, s3
	}
	for ; r < rows; r++ {
		row := a[r*cols : (r+1)*cols]
		var s float32
		for c, xv := range x {
			s += row[c] * xv
		}
		y[r] = s
	}
}

// pad8 rounds n up to the kernel lane width (8 float32s = one YMM
// register).
func pad8(n int) int { return (n + 7) &^ 7 }

// Accelerated reports whether the AVX2+FMA assembly kernels are in use.
// The portable kernels compute the same function but round differently
// (no fused multiply-add), so output pinned bit-for-bit holds on one path
// only.
func Accelerated() bool { return useAVX }

// GemvColF32 computes y[0:rows8] = bias[0:rows8] + W·x over a
// column-major weight mirror: wt holds cols consecutive blocks of rows8
// float32s, block c being column c of W padded with zero rows to
// rows8 (a multiple of 8). On AVX2+FMA machines this runs in the
// assembly kernel — broadcast one x element, FMA it against a register
// tile of weight rows, no horizontal reductions — which is the layout
// that makes the short, wide layers of a small LSTM fast; elsewhere the
// equivalent Go loop below runs. Unlike MatVecF32 the bias is fused into
// the accumulator initialization, so callers never make a second pass.
func GemvColF32(wt []float32, rows8, cols int, x, bias, y []float32) {
	if rows8%8 != 0 || len(wt) < rows8*cols || len(x) < cols || len(bias) < rows8 || len(y) < rows8 {
		panic("nn: GemvColF32 dimension mismatch")
	}
	if useAVX && rows8 > 0 && cols > 0 {
		gemvColAsm(&wt[0], &x[0], &bias[0], &y[0], int64(rows8*4), int64(cols))
		return
	}
	copy(y[:rows8], bias[:rows8])
	for c := 0; c < cols; c++ {
		xv := x[c]
		col := wt[c*rows8 : (c+1)*rows8]
		for r, w := range col {
			y[r] += w * xv
		}
	}
}

// GemmColF32 is the batched form of GemvColF32: it computes
// y_b[0:rows8] = bias[0:rows8] + W·x_b for nb independent input lanes over
// the same column-major weight mirror, traversing the weights once per
// four lanes instead of once per lane. Lane b's input starts at
// x[b*xStride] (xStride >= cols) and its output at y[b*yStride]
// (yStride >= rows8), so callers hand in whole activation planes without
// copying. Per lane the accumulation is exactly GemvColF32's — bias-
// initialized accumulators, one fused multiply-add per ascending column —
// so the result is bit-identical to nb independent GemvColF32 calls on
// both the assembly and the portable path. That equality is what lets the
// lockstep batched generation engine keep the per-seed bit-exactness
// contract while amortizing weight bandwidth across the micro-batch.
func GemmColF32(wt []float32, rows8, cols int, x []float32, xStride int, bias, y []float32, yStride, nb int) {
	if rows8%8 != 0 || len(wt) < rows8*cols || xStride < cols || yStride < rows8 {
		panic("nn: GemmColF32 dimension mismatch")
	}
	if nb <= 0 || rows8 == 0 || cols == 0 {
		return
	}
	if len(x) < (nb-1)*xStride+cols || len(bias) < rows8 || len(y) < (nb-1)*yStride+rows8 {
		panic("nn: GemmColF32 dimension mismatch")
	}
	if useAVX {
		b := 0
		for ; b+4 <= nb; b += 4 {
			gemmCol4Asm(&wt[0], &x[b*xStride], &bias[0], &y[b*yStride],
				int64(rows8*4), int64(cols), int64(xStride*4), int64(yStride*4))
		}
		// Remainder lanes take the single-lane kernel, which shares the
		// same per-element FMA order.
		for ; b < nb; b++ {
			gemvColAsm(&wt[0], &x[b*xStride], &bias[0], &y[b*yStride], int64(rows8*4), int64(cols))
		}
		return
	}
	for b := 0; b < nb; b++ {
		copy(y[b*yStride:b*yStride+rows8], bias[:rows8])
	}
	for c := 0; c < cols; c++ {
		col := wt[c*rows8 : (c+1)*rows8]
		for b := 0; b < nb; b++ {
			xv := x[b*xStride+c]
			yb := y[b*yStride : b*yStride+rows8]
			for r, w := range col {
				yb[r] += w * xv
			}
		}
	}
}

// PackColMajor builds the column-major, row-padded mirror GemvColF32
// wants from a row-major rows×cols matrix.
func PackColMajor(a []float32, rows, cols int) []float32 {
	rows8 := pad8(rows)
	wt := make([]float32, rows8*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			wt[c*rows8+r] = a[r*cols+c]
		}
	}
	return wt
}

// sigTransF32 is the scalar reference for the vectorized logistic
// kernel: a·σ(-negScale·x)+b computed exactly as the assembly does,
// through the single-sided clamped exponential.
func sigTransF32(x, negScale, a, b float32) float32 {
	t := negScale * x
	if t > 87 {
		t = 87
	} else if t < -87 {
		t = -87
	}
	return a/(1+ExpF32(t)) + b
}

// SigmoidVecF32 applies the logistic function elementwise in place,
// eight lanes at a time on AVX2+FMA machines.
func SigmoidVecF32(v []float32) { sigVec(v, v, -1, 1, 0) }

// TanhVecF32 writes tanh(src) into dst (which may alias src), via
// tanh(x) = 2σ(2x) - 1 on the same vector kernel.
func TanhVecF32(dst, src []float32) { sigVec(dst, src, -2, 2, -1) }

func sigVec(dst, src []float32, negScale, a, b float32) {
	if len(dst) < len(src) {
		panic("nn: sigVec destination too short")
	}
	n := len(src)
	n8 := n &^ 7
	if useAVX && n8 > 0 {
		vsigAsm(&dst[0], &src[0], int64(n8), negScale, a, b)
	} else {
		n8 = 0
	}
	for i := n8; i < n; i++ {
		dst[i] = sigTransF32(src[i], negScale, a, b)
	}
}

// MatVecInt8 computes y[r] = (Σ_c q[r][c]·xq[c]) · rowScale[r] · xScale
// for a row-major rows×cols int8 matrix against an int8-quantized input.
// Accumulation is exact in int32 (127·127·cols stays far below overflow
// for any realistic layer width), so the only rounding is the final
// two-scale dequantization — and the summation order is free, which is what
// lets the vector kernels (int8_amd64.s: AVX2, 16 columns a multiply-add, or
// AVX-512 VNNI, 32) take every whole group of four rows and still equal the
// Go loop bit for bit on every int8 input. Rows left over, matrices narrower
// than one AVX2 block, and machines with neither take the Go loop.
func MatVecInt8(q []int8, rows, cols int, xq []int8, rowScale []float32, xScale float32, y []float32) {
	matVecInt8(q, rows, cols, xq, rowScale, xScale, nil, y)
}

// matVecInt8 is MatVecInt8 followed by y[r] += bias[r] (bias may be nil),
// the add a rounding step of its own, as a caller's loop over y would make
// it: the kernels hold the row's value in a register at that point.
func matVecInt8(q []int8, rows, cols int, xq []int8, rowScale []float32, xScale float32, bias, y []float32) {
	if len(q) < rows*cols || len(xq) < cols || len(rowScale) < rows || len(y) < rows || (bias != nil && len(bias) < rows) {
		panic("nn: MatVecInt8 dimension mismatch")
	}
	minCols := 16
	if useVNNI {
		minCols = 1 // its loads are masked, so it has no narrowest matrix
	}
	r := 0
	if useAVX && rows >= 4 && cols >= minCols {
		r = rows &^ 3
		var b0 *float32
		if bias != nil {
			b0 = &bias[0]
		}
		if useVNNI {
			matVecInt8VNNIAsm(&q[0], &xq[0], &rowScale[0], b0, &y[0], int64(r), int64(cols), xScale)
		} else {
			matVecInt8Asm(&q[0], &xq[0], &rowScale[0], b0, &y[0], int64(r), int64(cols), xScale)
		}
	}
	matVecInt8Go(q[r*cols:], rows-r, cols, xq, rowScale[r:], xScale, y[r:])
	if bias != nil {
		for i := r; i < rows; i++ {
			y[i] += bias[i]
		}
	}
}

// matVecInt8Go is the portable MatVecInt8 and the reference the assembly is
// tested against. Blocked like MatVecF32.
func matVecInt8Go(q []int8, rows, cols int, xq []int8, rowScale []float32, xScale float32, y []float32) {
	xq = xq[:cols]
	r := 0
	for ; r+4 <= rows; r += 4 {
		r0 := q[(r+0)*cols : (r+1)*cols]
		r1 := q[(r+1)*cols : (r+2)*cols]
		r2 := q[(r+2)*cols : (r+3)*cols]
		r3 := q[(r+3)*cols : (r+4)*cols]
		var s0, s1, s2, s3 int32
		c := 0
		for ; c+4 <= cols; c += 4 {
			x0 := int32(xq[c])
			x1 := int32(xq[c+1])
			x2 := int32(xq[c+2])
			x3 := int32(xq[c+3])
			s0 += int32(r0[c])*x0 + int32(r0[c+1])*x1 + int32(r0[c+2])*x2 + int32(r0[c+3])*x3
			s1 += int32(r1[c])*x0 + int32(r1[c+1])*x1 + int32(r1[c+2])*x2 + int32(r1[c+3])*x3
			s2 += int32(r2[c])*x0 + int32(r2[c+1])*x1 + int32(r2[c+2])*x2 + int32(r2[c+3])*x3
			s3 += int32(r3[c])*x0 + int32(r3[c+1])*x1 + int32(r3[c+2])*x2 + int32(r3[c+3])*x3
		}
		for ; c < cols; c++ {
			xv := int32(xq[c])
			s0 += int32(r0[c]) * xv
			s1 += int32(r1[c]) * xv
			s2 += int32(r2[c]) * xv
			s3 += int32(r3[c]) * xv
		}
		y[r+0] = float32(s0) * rowScale[r+0] * xScale
		y[r+1] = float32(s1) * rowScale[r+1] * xScale
		y[r+2] = float32(s2) * rowScale[r+2] * xScale
		y[r+3] = float32(s3) * rowScale[r+3] * xScale
	}
	for ; r < rows; r++ {
		row := q[r*cols : (r+1)*cols]
		var s int32
		for c, xv := range xq {
			s += int32(row[c]) * int32(xv)
		}
		y[r] = float32(s) * rowScale[r] * xScale
	}
}

// Fast float32 activations. ExpF32 range-reduces by ln2 with a hi/lo
// split and evaluates a degree-6 Taylor polynomial on the reduced
// argument (|f| ≤ ln2/2), giving ~3 ulp accuracy — far inside the frozen
// path's 1e-5 parity budget — at a fraction of math.Exp's cost, because
// everything stays in float32 and 2^k is assembled directly from exponent
// bits.
const (
	log2eF32 = float32(1.4426950408889634)
	ln2HiF32 = float32(6.93359375e-01)
	ln2LoF32 = float32(-2.12194440e-04)
)

// ExpF32 approximates e^x in float32. Out-of-range inputs saturate
// (x > 88 → +Inf, x < -87 → 0, both already past float32's normal range);
// NaN propagates.
func ExpF32(x float32) float32 {
	switch {
	case x != x:
		return x
	case x > 88:
		return float32(math.Inf(1))
	case x < -87:
		return 0
	}
	kf := x * log2eF32
	var k int32
	if kf >= 0 {
		k = int32(kf + 0.5)
	} else {
		k = int32(kf - 0.5)
	}
	fk := float32(k)
	f := x - fk*ln2HiF32 - fk*ln2LoF32
	// Horner over 1 + f + f²/2 + … + f⁶/720.
	p := 1 + f*(1+f*(0.5+f*(1.0/6+f*(1.0/24+f*(1.0/120+f*(1.0/720))))))
	// 2^k via the exponent field: k ∈ [-126, 127] after the range clamps.
	return p * math.Float32frombits(uint32(k+127)<<23)
}

// SigmoidF32 is 1/(1+e^-x) stabilized the same way as Sigmoid: the
// exponential only ever sees a non-positive argument.
func SigmoidF32(x float32) float32 {
	if x >= 0 {
		z := ExpF32(-x)
		return 1 / (1 + z)
	}
	z := ExpF32(x)
	return z / (1 + z)
}

// TanhF32 computes tanh via the negative-argument exponential,
// saturating where float32 tanh is exactly ±1 anyway.
func TanhF32(x float32) float32 {
	switch {
	case x != x:
		return x
	case x > 9:
		return 1
	case x < -9:
		return -1
	}
	neg := x < 0
	if neg {
		x = -x
	}
	e := ExpF32(-2 * x)
	t := (1 - e) / (1 + e)
	if neg {
		return -t
	}
	return t
}
