package nn

import "math/rand"

// math/rand's seeded generator is an additive lagged Fibonacci sequence,
// x[n] = x[n-607] + x[n-273] (mod 2^64); Int63 masks the top bit off.
const (
	laneSrcLen  = 607
	laneSrcTap  = 273
	laneSrcMask = 1<<63 - 1
)

// LaneSource is a generation lane's random source: the same stream as
// rand.NewSource(seed), value for value, but produced a block at a time so
// that the stochastic layers can take a whole vector of uniforms in one call
// instead of one rand.Rand interface call per element. It is a rand.Source64,
// so a rand.Rand on top of it serves the lane's NormFloat64 draws from the
// same stream, and single and bulk draws interleave freely.
//
// The stock source keeps the last 607 outputs in a ring; LaneSource keeps
// the NEXT 607 in order. A freshly seeded stock source's first 607 outputs
// overwrite its ring exactly once, so they are the whole generator state and
// no seeding table is needed here: Seed asks a stock source for them. Each
// later block is x[i] += x[i-273], which over a block held oldest-first is
// two loops with no wrap-around.
type LaneSource struct {
	x     [laneSrcLen]uint64 // the next outputs, oldest first
	pos   int                // next unread index in x; laneSrcLen = exhausted
	stock rand.Source64      // expands a seed into the first block
}

// NewLaneSource returns a source positioned at the start of seed's stream.
func NewLaneSource(seed int64) *LaneSource {
	s := &LaneSource{stock: rand.NewSource(seed).(rand.Source64)}
	s.load()
	return s
}

// Seed repositions the source at the start of seed's stream.
func (s *LaneSource) Seed(seed int64) {
	s.stock.Seed(seed)
	s.load()
}

func (s *LaneSource) load() {
	for i := range s.x {
		s.x[i] = s.stock.Uint64()
	}
	s.pos = 0
}

// refill replaces the consumed block with the following one.
func (s *LaneSource) refill() {
	s.pos = 0
	if useAVX {
		laneRefillAsm(&s.x)
		return
	}
	x := &s.x
	for i := 0; i < laneSrcTap; i++ {
		x[i] += x[i+laneSrcLen-laneSrcTap]
	}
	for i := laneSrcTap; i < laneSrcLen; i++ {
		x[i] += x[i-laneSrcTap]
	}
}

// Uint64 implements rand.Source64.
func (s *LaneSource) Uint64() uint64 {
	if s.pos == laneSrcLen {
		s.refill()
	}
	v := s.x[s.pos]
	s.pos++
	return v
}

// Int63 implements rand.Source.
func (s *LaneSource) Int63() int64 { return int64(s.Uint64() & laneSrcMask) }

// laneFloat64 is rand.Rand.Float64's value for one generator output; a
// result of 1 is the caller's to redraw.
func laneFloat64(w uint64) float64 { return float64(int64(w&laneSrcMask)) / (1 << 63) }

// Float64s fills dst with what len(dst) consecutive rand.Rand.Float64 calls
// on this source would return, consuming the same outputs — including the
// redraw Float64 makes when an Int63 is so close to 2^63 that it rounds to 1.
func (s *LaneSource) Float64s(dst []float64) {
	for j := 0; j < len(dst); {
		if s.pos == laneSrcLen {
			s.refill()
		}
		p := s.pos
		for p < laneSrcLen && j < len(dst) {
			f := laneFloat64(s.x[p])
			p++
			if f == 1 {
				continue
			}
			dst[j] = f
			j++
		}
		s.pos = p
	}
}

// CentredF32s is Float64s narrowed for the float32 stochastic layers: it
// fills dst with float32(Float64()-0.5), the centred uniform ModulateF32Sweep
// scales its noise from. On AVX2 machines the conversion runs four words at
// a time in assembly, which leaves the Go loop below the block and fill
// ends and the rare group holding a word to redraw.
func (s *LaneSource) CentredF32s(dst []float32) {
	for j := 0; j < len(dst); {
		if s.pos == laneSrcLen {
			s.refill()
		}
		p := s.pos
		end := laneSrcLen
		if g := min(laneSrcLen-p, len(dst)-j) / 4; useAVX && g > 0 {
			n := 4 * int(laneCentredAsm(&dst[j], &s.x[p], int64(g)))
			p, j = p+n, j+n
			// Whatever stopped the kernel lies within the next four words.
			end = min(p+4, laneSrcLen)
		}
		for p < end && j < len(dst) {
			f := laneFloat64(s.x[p])
			p++
			if f == 1 {
				continue
			}
			dst[j] = float32(f - 0.5)
			j++
		}
		s.pos = p
	}
}
