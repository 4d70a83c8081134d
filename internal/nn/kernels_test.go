package nn

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMatVec is the scalar reference the blocked kernel must match.
func naiveMatVec(a []float32, rows, cols int, x []float32) []float32 {
	y := make([]float32, rows)
	for r := 0; r < rows; r++ {
		var s float32
		for c := 0; c < cols; c++ {
			s += a[r*cols+c] * x[c]
		}
		y[r] = s
	}
	return y
}

// TestMatVecF32Parity checks the blocked, unrolled kernel against a naive
// scalar loop across shapes that exercise every row/column tail path
// (rows%4 and cols%4 in all combinations).
func TestMatVecF32Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 13, 48} {
		for _, cols := range []int{1, 2, 3, 4, 6, 9, 16, 33} {
			a := make([]float32, rows*cols)
			x := make([]float32, cols)
			for i := range a {
				a[i] = float32(rng.NormFloat64())
			}
			for i := range x {
				x[i] = float32(rng.NormFloat64())
			}
			y := make([]float32, rows)
			MatVecF32(a, rows, cols, x, y)
			want := naiveMatVec(a, rows, cols, x)
			for r := range y {
				diff := math.Abs(float64(y[r] - want[r]))
				tol := 1e-5 * (1 + math.Abs(float64(want[r])))
				if diff > tol {
					t.Fatalf("%dx%d row %d: blocked %v vs naive %v", rows, cols, r, y[r], want[r])
				}
			}
		}
	}
}

func TestMatVecF32PanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatVecF32 must panic on mismatched dimensions")
		}
	}()
	MatVecF32(make([]float32, 5), 2, 3, make([]float32, 3), make([]float32, 2))
}

// TestQuantizeRoundTrip bounds the per-element dequantization error:
// |x - q*scale| <= scale/2 (half a quantization step) for finite inputs.
func TestQuantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64()) * float32(math.Pow(10, float64(rng.Intn(5)-2)))
		}
		q := make([]int8, n)
		scale := QuantizeVecInt8(x, q)
		if scale < 0 || math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) {
			t.Fatalf("bad scale %v", scale)
		}
		for i := range x {
			back := float32(q[i]) * scale
			if diff := math.Abs(float64(x[i] - back)); diff > float64(scale)/2+1e-12 {
				t.Fatalf("x[%d]=%v round-trips to %v (scale %v, err %v)", i, x[i], back, scale, diff)
			}
		}
	}
}

// TestMatVecInt8Parity: the int8 path with per-row weight scales and a
// shared activation scale must approximate the f32 product within the
// combined quantization budget.
func TestMatVecInt8Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, rows := range []int{1, 3, 4, 9, 32} {
		for _, cols := range []int{1, 5, 16, 40} {
			w := make([]float32, rows*cols)
			x := make([]float32, cols)
			for i := range w {
				w[i] = float32(rng.NormFloat64())
			}
			for i := range x {
				x[i] = float32(rng.NormFloat64())
			}
			q, rowScale := QuantizeRowsInt8(w, rows, cols)
			xq := make([]int8, cols)
			xScale := QuantizeVecInt8(x, xq)
			y := make([]float32, rows)
			MatVecInt8(q, rows, cols, xq, rowScale, xScale, y)
			want := naiveMatVec(w, rows, cols, x)
			for r := range y {
				// Error budget: each product has relative error ~1/127 per
				// operand; accumulate over cols with slack.
				tol := 0.05 * (1 + math.Sqrt(float64(cols)))
				if diff := math.Abs(float64(y[r] - want[r])); diff > tol {
					t.Fatalf("%dx%d row %d: int8 %v vs f32 %v (tol %v)", rows, cols, r, y[r], want[r], tol)
				}
			}
		}
	}
}

// TestQuantizeDegenerate: zero, NaN, and infinite inputs must not produce
// NaN scales or out-of-range codes.
func TestQuantizeDegenerate(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, x := range [][]float32{
		{},
		{0, 0, 0},
		{nan, nan},
		{inf, -inf, 1},
		{nan, 0.5, -inf},
	} {
		q := make([]int8, len(x))
		scale := QuantizeVecInt8(x, q)
		if math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) || scale < 0 {
			t.Fatalf("QuantizeVecInt8(%v) scale = %v", x, scale)
		}
		for i, v := range q {
			if v < -127 || v > 127 {
				t.Fatalf("QuantizeVecInt8(%v) q[%d] = %d", x, i, v)
			}
		}
	}
}

// FuzzQuantize: quantization must never panic and always yield a finite,
// non-negative scale with codes in [-127, 127], whatever bit patterns the
// input holds, and the vector kernels must match the portable loops on them.
func FuzzQuantize(f *testing.F) {
	f.Add(uint32(0), uint32(0x3f800000), uint32(0x7f800000), uint32(0x7fc00000))
	f.Add(uint32(0xff7fffff), uint32(0x00000001), uint32(0x80000000), uint32(0x42f70000))
	f.Fuzz(func(t *testing.T, a, b, c, d uint32) {
		x := []float32{
			math.Float32frombits(a), math.Float32frombits(b),
			math.Float32frombits(c), math.Float32frombits(d),
		}
		q := make([]int8, len(x))
		scale := QuantizeVecInt8(x, q)
		if math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) || scale < 0 {
			t.Fatalf("scale = %v for %v", scale, x)
		}
		for i, v := range q {
			if v < -127 || v > 127 {
				t.Fatalf("q[%d] = %d for %v", i, v, x)
			}
		}
		// The same four patterns among ordinary values in a vector long
		// enough for the AVX2 kernels: both paths must agree exactly.
		wide := make([]float32, 19)
		for i := range wide {
			wide[i] = float32(i-9) * 0.37
		}
		wide[2], wide[7], wide[11], wide[18] = x[0], x[1], x[2], x[3]
		quantizeBothPaths(t, wide)
	})
}

// TestExpF32Accuracy compares the polynomial exp against math.Exp over the
// range the model actually uses (clamped log-sigma is in [-6, 3]; gate
// pre-activations rarely exceed ±30).
func TestExpF32Accuracy(t *testing.T) {
	for x := -87.0; x <= 88.0; x += 0.37 {
		got := float64(ExpF32(float32(x)))
		want := math.Exp(x)
		rel := math.Abs(got-want) / want
		if rel > 1e-5 {
			t.Fatalf("ExpF32(%v) = %v, want %v (rel %v)", x, got, want, rel)
		}
	}
	if v := ExpF32(100); !math.IsInf(float64(v), 1) {
		t.Errorf("ExpF32(100) = %v, want +Inf", v)
	}
	if v := ExpF32(-100); v != 0 {
		t.Errorf("ExpF32(-100) = %v, want 0", v)
	}
	if v := ExpF32(float32(math.NaN())); !math.IsNaN(float64(v)) {
		t.Errorf("ExpF32(NaN) = %v, want NaN", v)
	}
}

func TestSigmoidTanhAccuracy(t *testing.T) {
	for x := -20.0; x <= 20.0; x += 0.13 {
		if got, want := float64(SigmoidF32(float32(x))), 1/(1+math.Exp(-x)); math.Abs(got-want) > 2e-6 {
			t.Fatalf("SigmoidF32(%v) = %v, want %v", x, got, want)
		}
		if got, want := float64(TanhF32(float32(x))), math.Tanh(x); math.Abs(got-want) > 4e-6 {
			t.Fatalf("TanhF32(%v) = %v, want %v", x, got, want)
		}
	}
	// Saturation must be exact at the rails: downstream clamping relies on it.
	if v := TanhF32(50); v != 1 {
		t.Errorf("TanhF32(50) = %v, want 1", v)
	}
	if v := TanhF32(-50); v != -1 {
		t.Errorf("TanhF32(-50) = %v, want -1", v)
	}
	if v := SigmoidF32(80); v != 1 {
		t.Errorf("SigmoidF32(80) = %v, want 1", v)
	}
}

// TestModulateF32MatchesF64 checks the frozen stochastic layer — bulk draw,
// then one sweep over several vectors — against the float64 LSTM modulate
// run vector after vector on the stock generator: same RNG draw count and
// near-identical output, so the frozen path keeps the exact RNG schedule of
// the live model. Seven vectors make the sweep a group of four, a pair and
// a single.
func TestModulateF32MatchesF64(t *testing.T) {
	const n, nv = 16, 7
	rng := rand.New(rand.NewSource(5))
	v64 := make([][]float64, nv)
	v32 := make([][]float32, nv)
	for k := range v64 {
		v64[k] = make([]float64, n)
		v32[k] = make([]float32, n)
		for i := range v64[k] {
			v64[k][i] = rng.NormFloat64()
			v32[k][i] = float32(v64[k][i])
		}
	}

	r64 := rand.New(rand.NewSource(99))
	l := &LSTM{rng: r64}
	src := NewLaneSource(99)
	u := make([]float32, nv*n)
	a := make([]float32, nv)
	for k := range v64 {
		a[k] = 0.3 + 0.1*float32(k)
		l.modulate(v64[k], float64(a[k]))
	}
	src.CentredF32s(u)
	ModulateF32Sweep(v32, u, a)

	// Same draw count: both generators must now be in the same state.
	if a, b := r64.Int63(), src.Int63(); a != b {
		t.Fatalf("RNG streams diverged after modulate: %d vs %d", a, b)
	}
	for k := range v64 {
		for i := range v64[k] {
			if diff := math.Abs(v64[k][i] - float64(v32[k][i])); diff > 1e-5 {
				t.Fatalf("vector %d element %d: f64 %v vs f32 %v", k, i, v64[k][i], v32[k][i])
			}
		}
	}
}

// TestModulateF32SweepMatchesSingle: a vector's result does not depend on
// what shares the sweep with it. Every count from 1 to 17 vectors, lengths
// with and without a SIMD tail, and the awkward values — zeros of both
// signs, an all-zero vector (mean 0, nothing to rescale), a mass the noise
// more than doubles or halves (clamped scale) — must come out bit-equal to
// ModulateF32x1 on the vector alone, from the assembly kernel (groups of
// eight) and the Go kernels alike.
func TestModulateF32SweepMatchesSingle(t *testing.T) {
	withKernelFallback(t, testModulateF32SweepMatchesSingle)
}

func testModulateF32SweepMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	negZero := float32(math.Copysign(0, -1))
	for _, n := range []int{1, 7, 8, 9, 100} {
		for nv := 1; nv <= 17; nv++ {
			v := make([][]float32, nv)
			want := make([][]float32, nv)
			u := make([]float32, nv*n)
			a := make([]float32, nv)
			for i := range u {
				u[i] = float32(rng.Float64() - 0.5)
			}
			for k := range v {
				v[k] = make([]float32, n)
				fillNorm(v[k], rng)
				a[k] = float32(0.1 + rng.Float64())
				switch k % 5 {
				case 1:
					v[k][0], v[k][n-1] = negZero, 0
				case 2:
					for i := range v[k] {
						v[k][i] = 0
					}
				case 3:
					a[k] = 40 // noise dwarfs the signal: scale clamps at 0.5
				case 4:
					v[k][rng.Intn(n)] = float32(math.Inf(1)) // NaN where the Go kernel says NaN
				}
				want[k] = append([]float32(nil), v[k]...)
				ModulateF32x1(want[k], u[k*n:(k+1)*n], a[k])
			}
			ModulateF32Sweep(v, u, a)
			for k := range v {
				for i := range v[k] {
					got, ref := v[k][i], want[k][i]
					if math.Float32bits(got) != math.Float32bits(ref) && !(got != got && ref != ref) {
						t.Fatalf("n=%d: vector %d of %d, element %d: sweep %v != alone %v", n, k, nv, i, got, ref)
					}
				}
			}
		}
	}
}

// TestFrozenDenseMatchesLinear: freezing a Linear and applying it must
// reproduce Forward within f32 tolerance (f32) and quantization budget
// (int8), biases exact in both.
func TestFrozenDenseMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLinear(13, 7, rng)
	x64 := make([]float64, 13)
	x32 := make([]float32, 13)
	for i := range x64 {
		x64[i] = rng.NormFloat64()
		x32[i] = float32(x64[i])
	}
	want := l.Forward(x64)

	for _, quant := range []bool{false, true} {
		d := FreezeLinear(l, quant)
		y := make([]float32, 7)
		xq := make([]int8, 13)
		d.Apply(x32, y, xq)
		tol := 1e-5
		if quant {
			tol = 0.2
		}
		for i := range want {
			if diff := math.Abs(want[i] - float64(y[i])); diff > tol {
				t.Fatalf("quant=%v out[%d]: frozen %v vs linear %v", quant, i, y[i], want[i])
			}
		}
	}
	l.ClearCache()
}

// TestFreezeLSTMStepMatchesF64: a frozen step must track the float64 LSTM
// step closely with noise off (bit-exact is not expected — f32), in every
// lane of an 8-lane StepBatch and in the same lane alone at width 1.
func TestFreezeLSTMStepMatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewLSTM(5, 9, rng)
	l.NoiseActive = false
	fr := FreezeLSTM(l, false)
	const nb = 8
	wide, alone := fr.NewBatchState(nb), fr.NewBatchState(1)
	l.ResetState()

	for step := 0; step < 6; step++ {
		x64 := make([]float64, 5)
		in := alone.Input(0)
		for i := range x64 {
			x64[i] = rng.NormFloat64()
			in[i] = float32(x64[i])
		}
		for b := 0; b < nb; b++ {
			copy(wide.Input(b), in)
		}
		h64 := l.Step(x64)
		fr.StepBatch(alone, 1, nil, nil)
		fr.StepBatch(wide, nb, nil, nil)
		h32 := alone.H(0)
		for j := range h64 {
			if diff := math.Abs(h64[j] - float64(h32[j])); diff > 1e-4 {
				t.Fatalf("step %d hidden %d: f64 %v vs frozen %v", step, j, h64[j], h32[j])
			}
			for b := 0; b < nb; b++ {
				if wide.H(b)[j] != h32[j] {
					t.Fatalf("step %d hidden %d: lane %d of %d %v vs alone %v", step, j, b, nb, wide.H(b)[j], h32[j])
				}
			}
		}
	}
	l.ClearCache()
}

// withKernelFallback runs fn twice, once on the platform's fast path and
// once with the vector kernels disabled, so every parity test covers both
// the assembly and the portable Go implementations.
func withKernelFallback(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	fn(t)
	savedAVX, savedVNNI := useAVX, useVNNI
	useAVX, useVNNI = false, false
	defer func() { useAVX, useVNNI = savedAVX, savedVNNI }()
	t.Run("fallback", fn)
}

func TestGemvColF32Parity(t *testing.T) {
	withKernelFallback(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, rows := range []int{1, 2, 4, 5, 8, 12, 31, 48, 70, 128} {
			for _, cols := range []int{1, 2, 3, 7, 19, 24, 40} {
				a := make([]float32, rows*cols)
				x := make([]float32, cols)
				bias := make([]float32, pad8(rows))
				for i := range a {
					a[i] = float32(rng.NormFloat64())
				}
				for i := range x {
					x[i] = float32(rng.NormFloat64())
				}
				for i := 0; i < rows; i++ {
					bias[i] = float32(rng.NormFloat64())
				}
				wt := PackColMajor(a, rows, cols)
				y := make([]float32, pad8(rows))
				GemvColF32(wt, pad8(rows), cols, x, bias, y)
				want := naiveMatVec(a, rows, cols, x)
				for r := 0; r < rows; r++ {
					ref := want[r] + bias[r]
					diff := math.Abs(float64(y[r] - ref))
					tol := 1e-5 * (1 + math.Abs(float64(ref)))
					if diff > tol {
						t.Fatalf("%dx%d row %d: GemvColF32 %v vs naive %v", rows, cols, r, y[r], ref)
					}
				}
				// Padded rows have zero weights and zero bias.
				for r := rows; r < pad8(rows); r++ {
					if y[r] != 0 {
						t.Fatalf("%dx%d pad row %d: got %v, want 0", rows, cols, r, y[r])
					}
				}
			}
		}
	})
}

func TestGemvColF32PanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rows8 not a multiple of 8")
		}
	}()
	GemvColF32(make([]float32, 12), 12, 1, make([]float32, 1), make([]float32, 12), make([]float32, 12))
}

func TestSigmoidTanhVecParity(t *testing.T) {
	withKernelFallback(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for _, n := range []int{1, 4, 7, 8, 9, 16, 40, 100} {
			src := make([]float32, n)
			for i := range src {
				src[i] = float32(rng.NormFloat64() * 8)
			}
			// Out-of-range and saturation inputs in every size that fits.
			if n >= 4 {
				src[0], src[1], src[2], src[3] = 120, -120, 50, -50
			}
			sv := append([]float32(nil), src...)
			SigmoidVecF32(sv)
			tv := make([]float32, n)
			TanhVecF32(tv, src)
			for i := range src {
				x := float64(src[i])
				wantS := 1 / (1 + math.Exp(-x))
				wantT := math.Tanh(x)
				if d := math.Abs(float64(sv[i]) - wantS); d > 2e-6 {
					t.Fatalf("n=%d SigmoidVecF32(%v) = %v, want %v (diff %g)", n, src[i], sv[i], wantS, d)
				}
				if d := math.Abs(float64(tv[i]) - wantT); d > 4e-6 {
					t.Fatalf("n=%d TanhVecF32(%v) = %v, want %v (diff %g)", n, src[i], tv[i], wantT, d)
				}
			}
		}
		// Exact saturation rails, matching the scalar kernels.
		one := []float32{80}
		SigmoidVecF32(one)
		if one[0] != 1 {
			t.Fatalf("SigmoidVecF32(80) = %v, want exactly 1", one[0])
		}
		rails := make([]float32, 2)
		TanhVecF32(rails, []float32{50, -50})
		if rails[0] != 1 || rails[1] != -1 {
			t.Fatalf("TanhVecF32(±50) = %v, want exactly ±1", rails)
		}
	})
}

func TestTanhVecF32InPlace(t *testing.T) {
	withKernelFallback(t, func(t *testing.T) {
		v := []float32{-3, -1, 0, 0.5, 1, 2, 4, 8, -0.25, 9}
		want := make([]float32, len(v))
		TanhVecF32(want, v)
		TanhVecF32(v, v)
		for i := range v {
			if v[i] != want[i] {
				t.Fatalf("in-place tanh diverged at %d: %v vs %v", i, v[i], want[i])
			}
		}
	})
}
