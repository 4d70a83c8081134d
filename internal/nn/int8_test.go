package nn

import (
	"math"
	"math/rand"
	"testing"
)

// int8Case is one MatVecInt8 problem whose operands are carved out of larger
// buffers with guard values on both sides: the guard bytes around q and xq
// are large, so a kernel that reads past either slice and lets the bytes
// into a sum gets a different answer, and the guard floats around y must
// survive the call.
type int8Case struct {
	rows, cols int
	qBuf, xBuf []int8
	q, xq      []int8
	rowScale   []float32
	xScale     float32
	yBuf       []float32
}

const (
	int8Guard  = 64 // guard elements on each side, more than one kernel block
	yGuardBits = 0x7fc0dead
)

// newInt8Case builds a rows×cols case with q[i] = qAt(i), xq[c] = xAt(c) and
// every guard byte set to guard.
func newInt8Case(rows, cols int, guard int8, qAt, xAt func(i int) int8, rng *rand.Rand) *int8Case {
	c := &int8Case{rows: rows, cols: cols}
	c.qBuf = make([]int8, rows*cols+2*int8Guard)
	c.xBuf = make([]int8, cols+2*int8Guard)
	for i := range c.qBuf {
		c.qBuf[i] = guard
	}
	for i := range c.xBuf {
		c.xBuf[i] = guard
	}
	c.q = c.qBuf[int8Guard : int8Guard+rows*cols : int8Guard+rows*cols]
	c.xq = c.xBuf[int8Guard : int8Guard+cols : int8Guard+cols]
	for i := range c.q {
		c.q[i] = qAt(i)
	}
	for i := range c.xq {
		c.xq[i] = xAt(i)
	}
	c.rowScale = make([]float32, rows)
	for i := range c.rowScale {
		c.rowScale[i] = float32(rng.NormFloat64())
	}
	c.xScale = float32(rng.NormFloat64())
	c.yBuf = make([]float32, rows+2*int8Guard)
	return c
}

// want is the definition, one product at a time.
func (c *int8Case) want() []float32 {
	y := make([]float32, c.rows)
	for r := range y {
		var s int32
		for k := 0; k < c.cols; k++ {
			s += int32(c.q[r*c.cols+k]) * int32(c.xq[k])
		}
		y[r] = float32(s) * c.rowScale[r] * c.xScale
	}
	return y
}

// check runs MatVecInt8, and matVecInt8 with a bias, on the current dispatch
// setting and compares every output bit with want (plus the bias, added as a
// step of its own), and the guards around y with what they were.
func (c *int8Case) check(t *testing.T, want []float32, what string) {
	t.Helper()
	y := c.yBuf[int8Guard : int8Guard+c.rows : int8Guard+c.rows]
	for _, bias := range [][]float32{nil, c.rowScale} {
		for i := range c.yBuf {
			c.yBuf[i] = math.Float32frombits(yGuardBits)
		}
		if bias == nil {
			MatVecInt8(c.q, c.rows, c.cols, c.xq, c.rowScale, c.xScale, y)
		} else {
			matVecInt8(c.q, c.rows, c.cols, c.xq, c.rowScale, c.xScale, bias, y)
		}
		for r, w := range want {
			if bias != nil {
				w += bias[r]
			}
			if math.Float32bits(y[r]) != math.Float32bits(w) {
				t.Fatalf("%s %dx%d avx=%v vnni=%v bias=%v row %d: got %v, want %v",
					what, c.rows, c.cols, useAVX, useVNNI, bias != nil, r, y[r], w)
			}
		}
		for i, v := range c.yBuf {
			if (i < int8Guard || i >= int8Guard+c.rows) && math.Float32bits(v) != yGuardBits {
				t.Fatalf("%s %dx%d avx=%v vnni=%v: wrote y[%d], outside y[0:%d]",
					what, c.rows, c.cols, useAVX, useVNNI, i-int8Guard, c.rows)
			}
		}
	}
}

// withInt8Kernels runs fn once per MatVecInt8 kernel this machine has: as
// detected, then with the VNNI kernel off (the AVX2 kernel, where there is
// one), then with every vector kernel off (the Go loop).
func withInt8Kernels(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	savedAVX, savedVNNI := useAVX, useVNNI
	defer func() { useAVX, useVNNI = savedAVX, savedVNNI }()
	fn(t)
	if useVNNI {
		useVNNI = false
		fn(t)
	}
	if useAVX {
		useAVX = false
		fn(t)
	}
}

// TestMatVecInt8AsmMatchesGo: MatVecInt8 equals the one-product-at-a-time
// definition bit for bit on every kernel, over shapes on every side of the
// kernels' 4-row and 16- and 32-column blocks, the engine's own gate shapes
// among them, and operands at the int8 extremes (-128 included: the engine's
// quantizer never emits it, the entry point accepts it).
func TestMatVecInt8AsmMatchesGo(t *testing.T) {
	patterns := []struct {
		name   string
		q, x   func(i int) int8
		random bool
	}{
		{name: "random", random: true},
		{name: "all+127", q: func(int) int8 { return 127 }, x: func(int) int8 { return 127 }},
		{name: "all-127", q: func(int) int8 { return -127 }, x: func(int) int8 { return 127 }},
		{name: "all-128", q: func(int) int8 { return -128 }, x: func(int) int8 { return -128 }},
		{name: "-128x+127", q: func(int) int8 { return -128 }, x: func(int) int8 { return 127 }},
		{name: "alternating", q: func(i int) int8 { return int8(127 - 255*(i&1)) }, x: func(i int) int8 { return int8(-128 + 255*(i&1)) }},
		{name: "mixed-periods", q: func(i int) int8 { return int8(-128 + 255*(i/3&1)) }, x: func(i int) int8 { return int8(127 - 254*(i&1)) }},
	}
	withInt8Kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		random := func(int) int8 { return int8(rng.Intn(256) - 128) }
		for _, rows := range []int{1, 3, 4, 5, 9, 104, 304, 400} {
			for _, cols := range []int{1, 15, 16, 17, 31, 32, 33, 107, 200, 255} {
				for _, p := range patterns {
					if p.random {
						p.q, p.x = random, random
					}
					// The same operands between two different sets of
					// guards: an answer that depends on bytes outside the
					// slices cannot be right both times.
					c := newInt8Case(rows, cols, 127, p.q, p.x, rng)
					want := c.want()
					c.check(t, want, p.name)
					for _, buf := range [][]int8{c.qBuf[:int8Guard], c.qBuf[int8Guard+rows*cols:], c.xBuf[:int8Guard], c.xBuf[int8Guard+cols:]} {
						for i := range buf {
							buf[i] = -128
						}
					}
					c.check(t, want, p.name+"/guards-128")
				}
			}
		}
	})
}

func TestMatVecInt8PanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatVecInt8 must panic on mismatched dimensions")
		}
	}()
	MatVecInt8(make([]int8, 4*16), 4, 16, make([]int8, 15), make([]float32, 4), 1, make([]float32, 4))
}

// FuzzMatVecInt8 feeds MatVecInt8 arbitrary int8 bytes at arbitrary shapes
// (up to 64 rows by 256 columns) and asserts bit equality with the
// definition on every kernel.
func FuzzMatVecInt8(f *testing.F) {
	f.Add(uint8(3), uint8(106), []byte{0x80, 0x7f, 0x81, 0x00, 0xff})
	f.Add(uint8(7), uint8(15), []byte{0x80})
	f.Add(uint8(63), uint8(199), []byte("int8 joins the vector engine"))
	f.Add(uint8(0), uint8(16), []byte{})
	f.Fuzz(func(t *testing.T, rowsIn, colsIn uint8, data []byte) {
		rows, cols := int(rowsIn)&63+1, int(colsIn)+1
		at := func(off int) func(int) int8 {
			return func(i int) int8 {
				if len(data) == 0 {
					return 0
				}
				return int8(data[(off+i)%len(data)])
			}
		}
		// x starts rows*cols bytes in, so a short input still gives q and
		// x different phases of it.
		c := newInt8Case(rows, cols, -128, at(0), at(rows*cols), rand.New(rand.NewSource(int64(len(data)))))
		want := c.want()
		withInt8Kernels(t, func(t *testing.T) { c.check(t, want, "fuzz") })
	})
}

// quantizeBothPaths quantizes x on the current dispatch setting and on the
// portable path, q carved out of a guarded buffer each time, and fails on
// any difference in a code, in the scale's bits, or in a guard byte.
func quantizeBothPaths(t *testing.T, x []float32) {
	t.Helper()
	run := func() ([]int8, float32) {
		buf := make([]int8, len(x)+2*int8Guard)
		for i := range buf {
			buf[i] = 99
		}
		scale := QuantizeVecInt8(x, buf[int8Guard:int8Guard+len(x):int8Guard+len(x)])
		for i, v := range buf {
			if (i < int8Guard || i >= int8Guard+len(x)) && v != 99 {
				t.Fatalf("n=%d avx=%v: wrote q[%d], outside q[0:%d]", len(x), useAVX, i-int8Guard, len(x))
			}
		}
		return buf[int8Guard : int8Guard+len(x)], scale
	}
	got, gotScale := run()
	saved := useAVX
	useAVX = false
	want, wantScale := run()
	useAVX = saved
	if math.Float32bits(gotScale) != math.Float32bits(wantScale) {
		t.Fatalf("n=%d: scale %v, portable %v (x=%v)", len(x), gotScale, wantScale, x)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d: q[%d] = %d, portable %d (x[%d]=%v, scale %v)", len(x), i, got[i], want[i], i, x[i], gotScale)
		}
	}
}

// TestQuantizeVecInt8AsmMatchesGo: the vector quantizer gives the portable
// loops' codes and scale exactly, at lengths around its block of eight and
// the engine's own, over magnitudes from subnormal to huge, with products
// landing on rounding ties, and with NaN and ±Inf anywhere in the vector —
// alone, as the would-be maximum, or as every element.
func TestQuantizeVecInt8AsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	lengths := []int{0, 1, 7, 8, 9, 15, 16, 17, 24, 31, 100, 107, 200}
	for _, n := range lengths {
		for trial := 0; trial < 40; trial++ {
			x := make([]float32, n)
			mag := float32(math.Pow(10, float64(rng.Intn(80)-45)))
			for i := range x {
				x[i] = float32(rng.NormFloat64()) * mag
			}
			if n > 0 && trial%4 == 1 {
				// Ties: with a maximum of 127 the scale is 1, and k+0.5
				// must round away from zero in both paths.
				x[0] = 127
				for i := 1; i < n; i++ {
					x[i] = float32(rng.Intn(253)-126) + 0.5
				}
			}
			if n > 0 && trial%4 >= 2 {
				for k := 0; k <= n/6; k++ {
					x[rng.Intn(n)] = [...]float32{nan, inf, -inf, 0, float32(math.Copysign(0, -1)), math.MaxFloat32, 1e-45}[rng.Intn(7)]
				}
			}
			quantizeBothPaths(t, x)
		}
		for _, v := range []float32{0, nan, inf, -inf, math.MaxFloat32, -1e-45} {
			x := make([]float32, n)
			for i := range x {
				x[i] = v
			}
			quantizeBothPaths(t, x)
		}
	}
}
