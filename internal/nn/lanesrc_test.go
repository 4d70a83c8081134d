package nn

import (
	"math"
	"math/rand"
	"testing"
)

// laneSrcTwin drives a LaneSource and the stock math/rand source it must
// reproduce through the same calls, each with a rand.Rand on top.
type laneSrcTwin struct {
	t     testing.TB
	src   *LaneSource
	stock rand.Source64
	r     *rand.Rand // on src
	ref   *rand.Rand // on stock
	f64   []float64
	f32   []float32
	draws int
}

func newLaneSrcTwin(t testing.TB, seed int64) *laneSrcTwin {
	src := NewLaneSource(seed)
	stock := rand.NewSource(seed).(rand.Source64)
	return &laneSrcTwin{t: t, src: src, stock: stock, r: rand.New(src), ref: rand.New(stock)}
}

// op runs one operation, picked by code, on both sides and compares. arg
// sizes the bulk fills and perturbs the reseed.
func (w *laneSrcTwin) op(code, arg int) {
	w.t.Helper()
	bulk := func(n int, centred bool) {
		w.t.Helper()
		w.draws += n
		if centred {
			if cap(w.f32) < n {
				w.f32 = make([]float32, n)
			}
			got := w.f32[:n]
			w.src.CentredF32s(got)
			for i, g := range got {
				if want := float32(w.ref.Float64() - 0.5); g != want {
					w.t.Fatalf("CentredF32s(%d)[%d] = %v, stock gives %v", n, i, g, want)
				}
			}
			return
		}
		if cap(w.f64) < n {
			w.f64 = make([]float64, n)
		}
		got := w.f64[:n]
		w.src.Float64s(got)
		for i, g := range got {
			if want := w.ref.Float64(); g != want {
				w.t.Fatalf("Float64s(%d)[%d] = %v, stock gives %v", n, i, g, want)
			}
		}
	}
	switch code % 8 {
	case 0:
		w.draws++
		if g, want := w.src.Uint64(), w.stock.Uint64(); g != want {
			w.t.Fatalf("Uint64 = %#x, stock gives %#x", g, want)
		}
	case 1:
		w.draws++
		if g, want := w.src.Int63(), w.stock.Int63(); g != want {
			w.t.Fatalf("Int63 = %#x, stock gives %#x", g, want)
		}
	case 2:
		bulk(arg, false)
	case 3:
		bulk(arg, true)
	case 4:
		w.draws++ // at least
		if g, want := w.r.NormFloat64(), w.ref.NormFloat64(); g != want {
			w.t.Fatalf("NormFloat64 = %v, stock gives %v", g, want)
		}
	case 5:
		w.draws++
		if g, want := w.r.Float64(), w.ref.Float64(); g != want {
			w.t.Fatalf("Float64 = %v, stock gives %v", g, want)
		}
	case 6:
		// Long fills: up to two refills inside one call.
		bulk(arg*40, arg%2 == 0)
	case 7:
		// Reseed a used source.
		seed := int64(arg)*7919 - 1000
		w.src.Seed(seed)
		w.stock.Seed(seed)
	}
}

// TestLaneSourceMatchesStock: for 64 seeds and at least 5000 draws each, a
// random interleaving of single draws, bulk fills of random lengths (short
// ones that stop short of, land on and step over the 607-value refill, long
// ones that span it), rand.Rand draws on top and reseeds gives the stock
// source's values throughout.
func TestLaneSourceMatchesStock(t *testing.T) {
	withKernelFallback(t, testLaneSourceMatchesStock)
}

func testLaneSourceMatchesStock(t *testing.T) {
	ops := rand.New(rand.NewSource(21))
	for i := 0; i < 64; i++ {
		seed := ops.Int63()
		switch i {
		case 0:
			seed = 0 // math/rand maps it to a fixed non-zero seed
		case 1:
			seed = -5
		case 2:
			seed = 1<<31 - 1 // reduces to 0 mod 2^31-1
		}
		w := newLaneSrcTwin(t, seed)
		for w.draws < 5000 {
			code := ops.Intn(8)
			if code == 7 && ops.Intn(8) != 0 {
				code = 3 // reseed now and then only, so streams run deep too
			}
			w.op(code, ops.Intn(64))
		}
	}
}

// TestLaneSourceRefillBoundary runs bulk fills that end just short of, on
// and just past a block edge (and span two), starting from positions on
// either side of one.
func TestLaneSourceRefillBoundary(t *testing.T) {
	withKernelFallback(t, testLaneSourceRefillBoundary)
}

func testLaneSourceRefillBoundary(t *testing.T) {
	for _, lead := range []int{0, 1, 300, laneSrcLen - 1, laneSrcLen, laneSrcLen + 1} {
		for _, n := range []int{0, 1, 2, laneSrcLen - 1, laneSrcLen, laneSrcLen + 1, 2*laneSrcLen + 3} {
			w := newLaneSrcTwin(t, int64(1000*lead+n))
			for i := 0; i < lead; i++ {
				w.op(0, 0)
			}
			w.op(3, n)
			w.op(2, n)
			w.op(1, 0)
		}
	}
}

// TestLaneSourceRedrawsOne plants Int63 values that Float64 rounds to 1 and
// redraws (anything from 2^63-2^9 up, whatever the top bit Int63 masks off):
// the bulk fills must skip exactly the words rand.Rand.Float64 skips — at
// the start, middle and end of a fill, twice in a row, and on both sides of
// a block edge.
func TestLaneSourceRedrawsOne(t *testing.T) {
	withKernelFallback(t, testLaneSourceRedrawsOne)
}

func testLaneSourceRedrawsOne(t *testing.T) {
	const one = 1<<63 - 1<<9
	words := []uint64{one, one + 1, 1<<63 - 1, 1<<64 - 1, 1<<63 | one}
	if f := float64(int64(one-1)) / (1 << 63); f == 1 {
		t.Fatal("2^63-2^9-1 rounds to 1: the threshold in this test is wrong")
	}
	const n = 10 // the short fill ends on word 9, or later after a skip
	last := laneSrcLen - 1
	for _, tc := range []struct {
		at       []int // planted words in the first block
		shortEnd int   // position after the short fill
	}{
		{[]int{0}, n + 1},
		{[]int{5}, n + 1},
		{[]int{9}, n + 1},
		{[]int{10}, n},
		{[]int{3, 4}, n + 2},
		{[]int{9, 10, 11}, n + 3},
		{[]int{last}, n},
		// Word 0 of the next block is x[0]+x[607-273]: planted too.
		{[]int{0, last}, n + 1},
	} {
		for centred := 0; centred < 2; centred++ {
			a, b := NewLaneSource(77), NewLaneSource(77)
			for i, p := range tc.at {
				a.x[p], b.x[p] = words[i%len(words)], words[i%len(words)]
			}
			if tc.at[0] == 0 {
				a.x[laneSrcLen-laneSrcTap], b.x[laneSrcLen-laneSrcTap] = 0, 0
			}
			ref := rand.New(b)
			for _, fill := range []int{n, laneSrcLen} {
				if centred == 1 {
					got := make([]float32, fill)
					a.CentredF32s(got)
					for i, g := range got {
						if want := float32(ref.Float64() - 0.5); g != want {
							t.Fatalf("planted at %v: CentredF32s(%d)[%d] = %v, Float64 gives %v", tc.at, fill, i, g, want)
						}
					}
				} else {
					got := make([]float64, fill)
					a.Float64s(got)
					for i, g := range got {
						if want := ref.Float64(); g != want {
							t.Fatalf("planted at %v: Float64s(%d)[%d] = %v, Float64 gives %v", tc.at, fill, i, g, want)
						}
					}
				}
				if a.pos != b.pos {
					t.Fatalf("planted at %v: fill of %d read up to %d, Float64 up to %d", tc.at, fill, a.pos, b.pos)
				}
				if fill == n && a.pos != tc.shortEnd {
					t.Fatalf("planted at %v: fill of %d read up to %d, want %d", tc.at, fill, a.pos, tc.shortEnd)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("planted at %v: streams diverged", tc.at)
			}
		}
	}
}

// TestLaneSourceAsmMatchesGo pins the assembly conversion and refill to the
// Go loops on words picked for the int64 -> float64 rounding (exact, just
// above and below 2^53, round-half-to-even ties both ways, the largest word
// that does not redraw), then on whole blocks.
func TestLaneSourceAsmMatchesGo(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX2+FMA: the Go loops are the only path")
	}
	words := []uint64{
		0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, 1<<53 + 3,
		1<<62 | 0x200, 1<<62 | 0x600, 1<<62 | 0x1ff, 1<<62 | 0x201, 1<<62 | 0x5ff, 1<<62 | 0x601,
		1<<63 - 1<<9 - 1, 1<<63 - 1<<10, 1<<63 - 1<<10 - 1, 1<<61 - 1, 1<<61 + 1<<7, 1<<61 + 3<<7,
		1 << 63, 1<<63 | 1, 1<<64 - 1<<9 - 1, 0x5555555555555555, 0xaaaaaaaaaaaaaaaa,
	}
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 50; round++ {
		a, b := NewLaneSource(int64(round)), NewLaneSource(int64(round))
		for i := range a.x {
			w := words[rng.Intn(len(words))]
			if round > 0 && rng.Intn(3) == 0 {
				w = rng.Uint64() >> uint(rng.Intn(64))
			}
			a.x[i], b.x[i] = w, w
		}
		got, want := make([]float32, 3*laneSrcLen), make([]float32, 3*laneSrcLen)
		a.CentredF32s(got)
		useAVX = false
		b.CentredF32s(want)
		useAVX = true
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("round %d value %d: asm %v, Go %v", round, i, got[i], want[i])
			}
		}
		if a.pos != b.pos || a.x != b.x {
			t.Fatalf("round %d: asm and Go paths left different generator states", round)
		}
	}
}

// FuzzLaneSource feeds LaneSource and the stock source the same arbitrary
// call sequence — two bytes per operation, the kind and its size — on both
// kernel paths.
func FuzzLaneSource(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 1, 0, 2, 63, 3, 63, 4, 0, 5, 0})
	f.Add(int64(0), []byte{6, 31, 6, 30, 7, 9, 3, 255, 2, 255, 0, 0})
	f.Add(int64(-1<<63), []byte{3, 200, 3, 200, 3, 200, 3, 7, 1, 0, 6, 15, 6, 16})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		run := func() {
			w := newLaneSrcTwin(t, seed)
			for i := 0; i+1 < len(ops); i += 2 {
				w.op(int(ops[i]), int(ops[i+1]))
			}
			w.op(0, 0)
		}
		run()
		saved := useAVX
		useAVX = false
		run()
		useAVX = saved
	})
}

// BenchmarkLaneSourceCentredF32s is one lane-step's worth of uniforms (h and
// C at Hidden=100) by bulk fill, against the same draws one rand.Rand call
// at a time.
func BenchmarkLaneSourceCentredF32s(b *testing.B) {
	dst := make([]float32, 200)
	b.Run("bulk", func(b *testing.B) {
		src := NewLaneSource(1)
		for i := 0; i < b.N; i++ {
			src.CentredF32s(dst)
		}
	})
	b.Run("rand.Rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = float32(r.Float64() - 0.5)
			}
		}
	})
}
