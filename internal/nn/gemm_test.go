package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The batched kernels' contract is EXACT equality with the single-lane
// kernels, not closeness: the batched generation engine relies on it to
// keep per-seed outputs byte-identical whether a job runs alone or in a
// micro-batch. These tests therefore compare with ==, on both the asm
// and the portable paths.

func fillNorm(v []float32, rng *rand.Rand) {
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
}

func TestGemmColF32MatchesGemv(t *testing.T) {
	withKernelFallback(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, rows := range []int{1, 5, 8, 12, 16, 31, 48, 70} {
			rows8 := pad8(rows)
			for _, cols := range []int{1, 2, 7, 19, 40} {
				// nb spans below, at, and past the asm chunk width (4),
				// including every ragged remainder 1..3.
				for _, nb := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9} {
					// Strides larger than the minimum mimic the batch
					// state's planes (lane data separated by padding).
					xStride := cols + 3
					yStride := rows8 + 8
					a := make([]float32, rows*cols)
					x := make([]float32, nb*xStride)
					bias := make([]float32, rows8)
					fillNorm(a, rng)
					fillNorm(x, rng)
					fillNorm(bias[:rows], rng)
					wt := PackColMajor(a, rows, cols)

					y := make([]float32, nb*yStride)
					GemmColF32(wt, rows8, cols, x, xStride, bias, y, yStride, nb)

					yRef := make([]float32, rows8)
					for b := 0; b < nb; b++ {
						GemvColF32(wt, rows8, cols, x[b*xStride:b*xStride+cols], bias, yRef)
						for r := 0; r < rows8; r++ {
							if y[b*yStride+r] != yRef[r] {
								t.Fatalf("%dx%d nb=%d lane %d row %d: GEMM %v != GEMV %v",
									rows, cols, nb, b, r, y[b*yStride+r], yRef[r])
							}
						}
						// The gap between lanes must stay untouched.
						for r := rows8; r < yStride && b*yStride+r < len(y); r++ {
							if y[b*yStride+r] != 0 {
								t.Fatalf("%dx%d nb=%d lane %d: wrote past PadRows at %d", rows, cols, nb, b, r)
							}
						}
					}
				}
			}
		}
	})
}

func TestGemmColF32Naive(t *testing.T) {
	withKernelFallback(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		rows, cols, nb := 23, 17, 5
		rows8 := pad8(rows)
		a := make([]float32, rows*cols)
		x := make([]float32, nb*cols)
		bias := make([]float32, rows8)
		fillNorm(a, rng)
		fillNorm(x, rng)
		fillNorm(bias[:rows], rng)
		wt := PackColMajor(a, rows, cols)
		y := make([]float32, nb*rows8)
		GemmColF32(wt, rows8, cols, x, cols, bias, y, rows8, nb)
		for b := 0; b < nb; b++ {
			want := naiveMatVec(a, rows, cols, x[b*cols:(b+1)*cols])
			for r := 0; r < rows; r++ {
				ref := want[r] + bias[r]
				diff := math.Abs(float64(y[b*rows8+r] - ref))
				if diff > 1e-5*(1+math.Abs(float64(ref))) {
					t.Fatalf("lane %d row %d: GEMM %v vs naive %v", b, r, y[b*rows8+r], ref)
				}
			}
		}
	})
}

func TestGemmColF32PanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for xStride < cols")
		}
	}()
	GemmColF32(make([]float32, 8*3), 8, 3, make([]float32, 4), 2, make([]float32, 8), make([]float32, 16), 8, 2)
}

// TestApplyBatchMatchesApply: every lane of ApplyBatch equals a standalone
// Apply on that lane's input — by kernel parity for the f32 GEMM, and by
// construction (a strided per-lane Apply loop) for int8.
func TestApplyBatchMatchesApply(t *testing.T) {
	withKernelFallback(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		l := NewLinear(13, 11, rng)
		defer l.ClearCache()
		for _, quant := range []bool{false, true} {
			d := FreezeLinear(l, quant)
			nb := 6
			xStride := 13 + 2
			yStride := d.PadRows + 4
			x := make([]float32, nb*xStride)
			fillNorm(x, rng)
			y := make([]float32, nb*yStride)
			xq := make([]int8, 13)
			d.ApplyBatch(x, xStride, y, yStride, nb, xq)
			yRef := make([]float32, d.PadRows)
			for b := 0; b < nb; b++ {
				d.Apply(x[b*xStride:b*xStride+13], yRef, xq)
				for r := 0; r < d.Rows; r++ {
					if y[b*yStride+r] != yRef[r] {
						t.Fatalf("quant=%v lane %d row %d: ApplyBatch %v != Apply %v",
							quant, b, r, y[b*yStride+r], yRef[r])
					}
				}
			}
		}
	})
}

// TestStepBatchMatchesStep drives 16 lockstep lanes and, for each lane, a
// width-1 state stepped alone with identical inputs and RNG seed (noise
// modulation on), asserting bit-identical H and C every step for both
// precisions — a lane's arithmetic does not depend on the batch around it,
// which is the property the generation engine's per-seed contract rests on.
// Lanes retire one per step, so the modulation sweep sees every live count
// from 16 down to 1: with both intensities set that is every even vector
// count up to 32, and with AH or AC zero (one vector a lane) every count
// from 1 to 16 — full groups of four and each remainder.
func TestStepBatchMatchesStep(t *testing.T) {
	withKernelFallback(t, func(t *testing.T) {
		setup := rand.New(rand.NewSource(15))
		l := NewLSTM(5, 9, setup)
		l.NoiseActive = true
		defer l.ClearCache()
		const nb, H = 16, 9
		for _, a := range [][2]float64{{0.6, 0.6}, {0.6, 0}, {0, 0.4}} {
			l.AH, l.AC = a[0], a[1]
			for _, quant := range []bool{false, true} {
				fr := FreezeLSTM(l, quant)
				bst := fr.NewBatchState(nb)
				srcs := make([]*LaneSource, nb)
				alone := make([]*InferLSTMBatchState, nb)
				aloneSrcs := make([]*LaneSource, nb)
				for b := 0; b < nb; b++ {
					srcs[b] = NewLaneSource(int64(100 + b))
					alone[b] = fr.NewBatchState(1)
					aloneSrcs[b] = NewLaneSource(int64(100 + b))
				}
				inRng := rand.New(rand.NewSource(16))
				for step := 0; step < 4+nb; step++ {
					// Lanes at and past their sequence end go inactive; the
					// width-1 twin simply stops stepping.
					active := make([]bool, nb)
					for b := 0; b < nb; b++ {
						active[b] = step < 4+b // lane b retires after 4+b steps
					}
					for b := 0; b < nb; b++ {
						in := make([]float32, 5)
						fillNorm(in, inRng)
						if !active[b] {
							continue
						}
						copy(bst.Input(b), in)
						copy(alone[b].Input(0), in)
					}
					fr.StepBatch(bst, nb, active, srcs)
					for b := 0; b < nb; b++ {
						if active[b] {
							fr.StepBatch(alone[b], 1, nil, aloneSrcs[b:b+1])
						}
					}
					for b := 0; b < nb; b++ {
						h, c := bst.H(b), bst.C(b)
						h1, c1 := alone[b].H(0), alone[b].C(0)
						for j := 0; j < H; j++ {
							if h[j] != h1[j] {
								t.Fatalf("a=%v quant=%v step %d lane %d h[%d]: batch %v != alone %v",
									a, quant, step, b, j, h[j], h1[j])
							}
							if c[j] != c1[j] {
								t.Fatalf("a=%v quant=%v step %d lane %d c[%d]: batch %v != alone %v",
									a, quant, step, b, j, c[j], c1[j])
							}
						}
					}
				}
				// Each lane drew H uniforms per non-zero intensity per live
				// step and nothing else — a zero intensity and a retired lane
				// draw nothing.
				per := 0
				for _, v := range a {
					if v > 0 {
						per += H
					}
				}
				for b := 0; b < nb; b++ {
					stock := rand.NewSource(int64(100 + b))
					for i := 0; i < (4+b)*per; i++ {
						stock.Int63()
					}
					want := stock.Int63()
					if got := srcs[b].Int63(); got != want {
						t.Fatalf("a=%v quant=%v lane %d: batched stream is not %d draws in", a, quant, b, (4+b)*per)
					}
					if got := aloneSrcs[b].Int63(); got != want {
						t.Fatalf("a=%v quant=%v lane %d: width-1 stream is not %d draws in", a, quant, b, (4+b)*per)
					}
				}
			}
		}
	})
}

// TestStepBatchQuantizesOnce: the int8 StepBatch quantizes a lane's [x; h]
// once and feeds both gate blocks from it. Each block's standalone Apply
// quantizes the same vector itself, so stepping by hand through two Apply
// calls must give the same H and C bit for bit, lane by lane, step by step.
func TestStepBatchQuantizesOnce(t *testing.T) {
	withKernelFallback(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		const in, H, nb = 5, 9, 3
		l := NewLSTM(in, H, rng)
		defer l.ClearCache()
		fr := FreezeLSTM(l, true)
		fr.Noise = false
		st := fr.NewBatchState(nb)
		zsig, zg := make([]float32, pad8(3*H)), make([]float32, pad8(H))
		gt, tc := make([]float32, pad8(H)), make([]float32, pad8(H))
		xq := make([]int8, in+H)
		for step := 0; step < 5; step++ {
			var xh [nb][]float32
			var c [nb][]float32
			for b := 0; b < nb; b++ {
				fillNorm(st.Input(b), rng)
				xh[b] = append(append([]float32(nil), st.Input(b)...), st.H(b)...)
				c[b] = append(make([]float32, 0, pad8(H)), st.C(b)...)[:pad8(H)]
			}
			fr.StepBatch(st, nb, nil, nil)
			for b := 0; b < nb; b++ {
				fr.GatesSig.Apply(xh[b], zsig, xq)
				fr.GatesG.Apply(xh[b], zg, xq)
				TanhVecF32(gt, zg)
				SigmoidVecF32(zsig)
				for j := 0; j < H; j++ {
					c[b][j] = zsig[H+j]*c[b][j] + zsig[j]*gt[j]
				}
				TanhVecF32(tc, c[b])
				for j := 0; j < H; j++ {
					h := zsig[2*H+j] * tc[j]
					if got := st.H(b)[j]; got != h {
						t.Fatalf("step %d lane %d h[%d]: StepBatch %v != two Apply calls %v", step, b, j, got, h)
					}
					if got := st.C(b)[j]; got != c[b][j] {
						t.Fatalf("step %d lane %d c[%d]: StepBatch %v != two Apply calls %v", step, b, j, got, c[b][j])
					}
				}
			}
		}
	})
}

// FuzzGemmShapes hammers GemmColF32 with arbitrary shapes, strides, and
// lane counts, asserting exact equality with per-lane GemvColF32 on both
// kernel paths. Mirrors FuzzQuantize's wiring into the CI fuzz smoke.
func FuzzGemmShapes(f *testing.F) {
	f.Add(int8(3), int8(5), int8(4), int8(2), int8(1), int64(1))
	f.Add(int8(16), int8(1), int8(9), int8(0), int8(0), int64(2))
	f.Add(int8(1), int8(40), int8(7), int8(5), int8(3), int64(3))
	f.Fuzz(func(t *testing.T, rowsIn, colsIn, nbIn, xPad, yPad int8, seed int64) {
		rows := int(rowsIn)&63 + 1
		cols := int(colsIn)&63 + 1
		nb := int(nbIn)&15 + 1
		rows8 := pad8(rows)
		xStride := cols + int(xPad)&7
		yStride := rows8 + (int(yPad)&7)*8
		rng := rand.New(rand.NewSource(seed))
		a := make([]float32, rows*cols)
		x := make([]float32, nb*xStride)
		bias := make([]float32, rows8)
		fillNorm(a, rng)
		fillNorm(x, rng)
		fillNorm(bias[:rows], rng)
		wt := PackColMajor(a, rows, cols)

		check := func(t *testing.T) {
			y := make([]float32, nb*yStride)
			GemmColF32(wt, rows8, cols, x, xStride, bias, y, yStride, nb)
			yRef := make([]float32, rows8)
			for b := 0; b < nb; b++ {
				GemvColF32(wt, rows8, cols, x[b*xStride:b*xStride+cols], bias, yRef)
				for r := 0; r < rows8; r++ {
					if y[b*yStride+r] != yRef[r] {
						t.Fatalf("rows=%d cols=%d nb=%d lane %d row %d: GEMM %v != GEMV %v",
							rows, cols, nb, b, r, y[b*yStride+r], yRef[r])
					}
				}
			}
		}
		check(t)
		saved := useAVX
		useAVX = false
		check(t)
		useAVX = saved
	})
}
