package env

import (
	"math"
	"math/rand"
	"testing"

	"gendt/internal/geo"
)

var origin = geo.Point{Lat: 51.5, Lon: 7.46}

func newTestMap() *Map {
	return NewMap(MapSpec{Origin: origin, ExtentKm: 12, CoreKm: 2, PoIPerKm2: 60, Seed: 11})
}

func TestAttributeNamesCount(t *testing.T) {
	if len(AttributeNames) != NumAttributes {
		t.Fatalf("AttributeNames has %d entries, want %d", len(AttributeNames), NumAttributes)
	}
	if NumAttributes != 26 {
		t.Fatalf("NumAttributes = %d, paper specifies 26", NumAttributes)
	}
}

func TestContextDimension(t *testing.T) {
	m := newTestMap()
	ctx := m.ContextAt(origin, 500)
	if len(ctx) != 26 {
		t.Fatalf("context vector has %d entries, want 26", len(ctx))
	}
}

func TestLandUseSharesSumToOne(t *testing.T) {
	m := newTestMap()
	pts := []geo.Point{
		origin,
		geo.Offset(origin, 45, 3000),
		geo.Offset(origin, 200, 5000),
	}
	for _, p := range pts {
		ctx := m.ContextAt(p, 500)
		sum := 0.0
		for i := 0; i < NumLandUse; i++ {
			if ctx[i] < 0 {
				t.Errorf("negative land-use share %v at %v", ctx[i], p)
			}
			sum += ctx[i]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("land-use shares sum to %v at %v, want 1", sum, p)
		}
	}
}

func TestPoICountsNonNegativeIntegers(t *testing.T) {
	m := newTestMap()
	ctx := m.ContextAt(origin, 500)
	for i := NumLandUse; i < NumAttributes; i++ {
		if ctx[i] < 0 || ctx[i] != math.Trunc(ctx[i]) {
			t.Errorf("PoI count %s = %v, want non-negative integer", AttributeNames[i], ctx[i])
		}
	}
}

func TestCoreIsUrbanPeripheryIsNot(t *testing.T) {
	m := newTestMap()
	core := m.ContextAt(origin, 500)
	// Urban share near the core should dominate.
	urban := core[LUContinuousUrban] + core[LUHighDenseUrban]
	if urban < 0.5 {
		t.Errorf("core urban share = %v, want > 0.5", urban)
	}
	edge := m.ContextAt(geo.Offset(origin, 0, 11000), 500)
	edgeUrban := edge[LUContinuousUrban] + edge[LUHighDenseUrban]
	if edgeUrban > urban {
		t.Errorf("edge urban share %v exceeds core %v", edgeUrban, urban)
	}
}

func TestPoIDensityDecaysOutward(t *testing.T) {
	m := newTestMap()
	countAll := func(ctx []float64) float64 {
		s := 0.0
		for i := NumLandUse; i < NumAttributes; i++ {
			s += ctx[i]
		}
		return s
	}
	core := countAll(m.ContextAt(origin, 1000))
	far := countAll(m.ContextAt(geo.Offset(origin, 90, 9000), 1000))
	if core <= far {
		t.Errorf("core PoI count %v not above periphery %v", core, far)
	}
}

func TestContextVariesAcrossSpace(t *testing.T) {
	m := newTestMap()
	a := m.ContextAt(origin, 500)
	b := m.ContextAt(geo.Offset(origin, 135, 6000), 500)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("environment context identical at core and 6 km out")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	m1 := NewMap(MapSpec{Origin: origin, ExtentKm: 8, Seed: 5})
	m2 := NewMap(MapSpec{Origin: origin, ExtentKm: 8, Seed: 5})
	a := m1.ContextAt(geo.Offset(origin, 30, 2000), 500)
	b := m2.ContextAt(geo.Offset(origin, 30, 2000), 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("maps with same seed differ at attribute %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestOutsideRegionDefaults(t *testing.T) {
	m := newTestMap()
	far := geo.Offset(origin, 0, 100000)
	if lu := m.LandUseAt(far); lu != LUIsolatedStructures {
		t.Errorf("land use far outside region = %d, want isolated structures", lu)
	}
}

func TestOriginAccessor(t *testing.T) {
	m := newTestMap()
	if m.Origin() != origin {
		t.Errorf("Origin() = %v, want %v", m.Origin(), origin)
	}
}

func TestMultiCoreMap(t *testing.T) {
	city2 := geo.Offset(origin, 90, 15000)
	m := NewMap(MapSpec{
		Origin: origin, ExtentKm: 40, CellM: 400, PoIPerKm2: 10, Seed: 8,
		Cores: []Core{
			{Center: origin, RadiusKm: 2},
			{Center: city2, RadiusKm: 1.5},
		},
	})
	urbanShare := func(p geo.Point) float64 {
		c := m.ContextAt(p, 500)
		return c[LUContinuousUrban] + c[LUHighDenseUrban] + c[LUMediumDenseUrban]
	}
	u1, u2 := urbanShare(origin), urbanShare(city2)
	mid := urbanShare(geo.Offset(origin, 90, 7500))
	if u1 < 0.5 || u2 < 0.5 {
		t.Errorf("city cores not urban: %v, %v", u1, u2)
	}
	if mid >= u1 || mid >= u2 {
		t.Errorf("midpoint between cities (%v) should be less urban than cores (%v, %v)", mid, u1, u2)
	}
}

// TestPoICountsMatchBruteForce: the squared-distance rejection in ContextAt
// must never change a count. The reference tests every point with math.Hypot
// alone, at random locations and at points pushed onto the circle's edge.
func TestPoICountsMatchBruteForce(t *testing.T) {
	m := newTestMap()
	rng := rand.New(rand.NewSource(5))
	const radius = 500
	check := func(x0, y0 float64) {
		t.Helper()
		got := m.ContextAt(m.proj.FromXY(x0, y0), radius)
		x0, y0 = m.proj.ToXY(m.proj.FromXY(x0, y0))
		for kind, pts := range m.pois {
			want := 0.0
			for _, pt := range pts {
				if math.Hypot(pt.x-x0, pt.y-y0) <= radius {
					want++
				}
			}
			if got[NumLandUse+kind] != want {
				t.Fatalf("at (%v, %v): %s count %v, brute force %v", x0, y0, AttributeNames[NumLandUse+kind], got[NumLandUse+kind], want)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		check((rng.Float64()-0.5)*10000, (rng.Float64()-0.5)*10000)
	}
	for trial := 0; trial < 200; trial++ {
		pts := m.pois[rng.Intn(NumPoI)]
		if len(pts) == 0 {
			continue
		}
		pt := pts[rng.Intn(len(pts))]
		a := rng.Float64() * 2 * math.Pi
		check(pt.x+radius*math.Cos(a), pt.y+radius*math.Sin(a))
	}
}
