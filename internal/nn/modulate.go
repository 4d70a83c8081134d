package nn

import "math"

// The stochastic-layer modulation of the frozen LSTM (paper §A.2), float32
// mirror of LSTM.modulate: add centred uniform noise scaled by the vector's
// mean |v|, then renormalize by the absolute-mass ratio clamped to [0.5, 2].
//
// The two |v| sums are ordered float32 additions — their element order is
// part of the per-seed bit-identity contract — so within one vector each is
// a serial chain of adds, one add latency per element. Across vectors there
// is no such constraint. StepBatch therefore draws every live lane's
// uniforms first (LaneSource.CentredF32s) and hands all live h and C
// vectors to ModulateF32Sweep at once, which walks them several at a time
// in one loop: the chains are independent, so the core overlaps them and
// the sweep runs at add throughput rather than add latency.
//
// Every function in this file keeps the ModulateF32 name prefix: the repo
// benchmark attributes CPU profile samples to cpu.modulate_share by it.

// ModulateF32Sweep modulates each v[k] in place with intensity a[k] > 0 and
// the centred uniforms u[k*n:(k+1)*n] (one per element, as
// LaneSource.CentredF32s writes them), n = len(v[k]) >= 1 being the same for
// all k. Each v[k]'s result is what ModulateF32x1 alone would produce —
// grouping only interleaves independent work. On AVX2 machines whole groups
// of eight run in assembly, where the eight sums are the lanes of one
// register; what is left over, and everything elsewhere, goes to the Go
// kernels four, two and one at a time.
func ModulateF32Sweep(v [][]float32, u []float32, a []float32) {
	if len(v) == 0 {
		return
	}
	n := len(v[0])
	k := 0
	if useAVX {
		for ; k+8 <= len(v); k += 8 {
			ModulateF32x8Asm(&v[k], &u[k*n], &a[k], int64(n))
		}
	}
	uk := func(k int) []float32 { return u[k*n : (k+1)*n] }
	for ; k+4 <= len(v); k += 4 {
		ModulateF32x4(v[k], v[k+1], v[k+2], v[k+3], uk(k), uk(k+1), uk(k+2), uk(k+3), a[k], a[k+1], a[k+2], a[k+3])
	}
	if k+2 <= len(v) {
		ModulateF32x2(v[k], v[k+1], uk(k), uk(k+1), a[k], a[k+1])
		k += 2
	}
	if k < len(v) {
		ModulateF32x1(v[k], uk(k), a[k])
	}
}

// ModulateF32x1 modulates one vector: the reference the wider kernels are
// tested against.
func ModulateF32x1(v, u []float32, a float32) {
	u = u[:len(v)]
	// abs32 feeds the adds the bit-identical operand a sign branch would
	// (sum + (-x) for x < 0, x unchanged otherwise, -0.0 included).
	before := float32(0)
	for _, x := range v {
		before += abs32(x)
	}
	mean := before / float32(len(v))
	after := float32(0)
	for i, x := range v {
		n := u[i] * mean
		nv := x + a*n
		v[i] = nv
		after += abs32(nv)
	}
	scale := modulateScale(before, after)
	for i := range v {
		v[i] *= scale
	}
}

// ModulateF32x2 is ModulateF32x1 over two vectors in one loop.
func ModulateF32x2(v0, v1, u0, u1 []float32, a0, a1 float32) {
	n := len(v0)
	v1, u0, u1 = v1[:n], u0[:n], u1[:n]
	var b0, b1 float32
	for i := 0; i < n; i++ {
		b0 += abs32(v0[i])
		b1 += abs32(v1[i])
	}
	m0, m1 := b0/float32(n), b1/float32(n)
	var s0, s1 float32
	for i := 0; i < n; i++ {
		n0 := u0[i] * m0
		n1 := u1[i] * m1
		x0 := v0[i] + a0*n0
		x1 := v1[i] + a1*n1
		v0[i], v1[i] = x0, x1
		s0 += abs32(x0)
		s1 += abs32(x1)
	}
	c0, c1 := modulateScale(b0, s0), modulateScale(b1, s1)
	for i := 0; i < n; i++ {
		v0[i] *= c0
		v1[i] *= c1
	}
}

// ModulateF32x4 is ModulateF32x1 over four vectors in one loop.
func ModulateF32x4(v0, v1, v2, v3, u0, u1, u2, u3 []float32, a0, a1, a2, a3 float32) {
	n := len(v0)
	v1, v2, v3 = v1[:n], v2[:n], v3[:n]
	u0, u1, u2, u3 = u0[:n], u1[:n], u2[:n], u3[:n]
	var b0, b1, b2, b3 float32
	for i := 0; i < n; i++ {
		b0 += abs32(v0[i])
		b1 += abs32(v1[i])
		b2 += abs32(v2[i])
		b3 += abs32(v3[i])
	}
	fn := float32(n)
	m0, m1, m2, m3 := b0/fn, b1/fn, b2/fn, b3/fn
	var s0, s1, s2, s3 float32
	for i := 0; i < n; i++ {
		n0 := u0[i] * m0
		n1 := u1[i] * m1
		n2 := u2[i] * m2
		n3 := u3[i] * m3
		x0 := v0[i] + a0*n0
		x1 := v1[i] + a1*n1
		x2 := v2[i] + a2*n2
		x3 := v3[i] + a3*n3
		v0[i], v1[i], v2[i], v3[i] = x0, x1, x2, x3
		s0 += abs32(x0)
		s1 += abs32(x1)
		s2 += abs32(x2)
		s3 += abs32(x3)
	}
	c0, c1, c2, c3 := modulateScale(b0, s0), modulateScale(b1, s1), modulateScale(b2, s2), modulateScale(b3, s3)
	for i := 0; i < n; i++ {
		v0[i] *= c0
		v1[i] *= c1
		v2[i] *= c2
		v3[i] *= c3
	}
}

// modulateScale is the renormalization factor: the absolute mass before
// over after, clamped to [0.5, 2]; 1 when nothing is left to rescale.
func modulateScale(before, after float32) float32 {
	scale := float32(1)
	if after > 1e-12 {
		scale = before / after
	}
	if scale < 0.5 {
		return 0.5
	}
	if scale > 2 {
		return 2
	}
	return scale
}

// abs32 clears the sign bit: |x| without a branch, exact for -0.0.
func abs32(x float32) float32 {
	return math.Float32frombits(math.Float32bits(x) &^ (1 << 31))
}
