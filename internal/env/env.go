// Package env models the GenDT environment context (paper §2.3.4 and
// Table 11): 26 attributes around a device location — land-use type shares
// from an urban-atlas-style raster, plus point-of-interest counts from an
// OSM-style point set. Because neither data source is available offline,
// the package procedurally synthesizes a coherent land-use map and PoI
// layout whose spatial statistics vary from dense city core to highway
// countryside, which is what drives the ResGen residual in GenDT.
package env

import (
	"math"
	"math/rand"

	"gendt/internal/geo"
)

// Land-use attribute indices (12 attributes, paper Table 11 left column).
const (
	LUContinuousUrban = iota
	LUHighDenseUrban
	LUMediumDenseUrban
	LULowDenseUrban
	LUVeryLowDenseUrban
	LUIsolatedStructures
	LUGreenUrban
	LUIndustrialCommercial
	LUAirSeaPorts
	LULeisureFacilities
	LUBarrenLands
	LUSea
	NumLandUse // 12
)

// PoI attribute indices (14 attributes, paper Table 11 right column),
// offset by NumLandUse within the full context vector.
const (
	PoITourism = iota
	PoICafe
	PoIParking
	PoIRestaurant
	PoIPostPolice
	PoITrafficSignal
	PoIOffice
	PoIPublicTransport
	PoIShop
	PoIPrimaryRoads
	PoISecondaryRoads
	PoIMotorways
	PoIRailwayStations
	PoITramStops
	NumPoI // 14
)

// NumAttributes is the full environment-context dimensionality N_g = 26.
const NumAttributes = NumLandUse + NumPoI

// AttributeNames lists the 26 attribute names in vector order.
var AttributeNames = []string{
	"continuous_urban", "high_dense_urban", "medium_dense_urban",
	"low_dense_urban", "very_low_dense_urban", "isolated_structures",
	"green_urban", "industrial_commercial", "air_sea_ports",
	"leisure_facilities", "barren_lands", "sea",
	"tourism", "cafe", "parking", "restaurant", "post_police",
	"traffic_signal", "office", "public_transport", "shop",
	"primary_roads", "secondary_roads", "motorways",
	"railway_stations", "tram_stops",
}

// Map is a procedural environment: a land-use class raster plus PoI points,
// centred on an origin. The zero value is not usable; construct with NewMap.
type Map struct {
	origin   geo.Point
	proj     *geo.Projection
	extentM  float64 // half-edge of the covered square, metres
	cellM    float64 // raster cell edge, metres
	n        int     // raster is n x n
	landUse  []uint8 // class per raster cell
	pois     [NumPoI][]pointXY
	poiGrid  map[[2]int][]poiRef // spatial hash over all PoIs
	poiCellM float64
}

type pointXY struct{ x, y float64 }

type poiRef struct {
	kind int
	idx  int
}

// Core is one dense urban centre within a map. Maps may have several —
// Dataset B spans multiple cities connected by highways.
type Core struct {
	Center   geo.Point
	RadiusKm float64
}

// MapSpec parameterizes map synthesis.
type MapSpec struct {
	Origin    geo.Point
	ExtentKm  float64 // edge of covered square region, km
	CellM     float64 // raster resolution (default 250 m)
	CoreKm    float64 // radius of the dense city core, km (single-core maps)
	Cores     []Core  // optional multiple city cores; overrides CoreKm
	PoIPerKm2 float64 // overall PoI density in the core (falls off outward)
	Seed      int64
}

// NewMap synthesizes an environment map. Land use transitions from
// continuous-urban core through decreasing densities to countryside; green
// areas, industrial zones, and water are splattered as coherent blobs.
// PoIs cluster in the core with density decaying with distance.
func NewMap(spec MapSpec) *Map {
	if spec.CellM <= 0 {
		spec.CellM = 250
	}
	if spec.CoreKm <= 0 {
		spec.CoreKm = 2
	}
	if spec.PoIPerKm2 <= 0 {
		spec.PoIPerKm2 = 40
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	half := spec.ExtentKm * 500
	n := int(math.Ceil(2 * half / spec.CellM))
	m := &Map{
		origin:   spec.Origin,
		proj:     geo.NewProjection(spec.Origin),
		extentM:  half,
		cellM:    spec.CellM,
		n:        n,
		landUse:  make([]uint8, n*n),
		poiGrid:  make(map[[2]int][]poiRef),
		poiCellM: 500,
	}
	coreM := spec.CoreKm * 1000

	// Resolve the core set: explicit multi-core spec, or a single core at
	// the origin. Cores are stored in planar coordinates.
	type coreXY struct{ x, y, radM float64 }
	var coresXY []coreXY
	if len(spec.Cores) > 0 {
		for _, c := range spec.Cores {
			x, y := m.proj.ToXY(c.Center)
			coresXY = append(coresXY, coreXY{x, y, c.RadiusKm * 1000})
		}
	} else {
		coresXY = []coreXY{{0, 0, coreM}}
	}
	// qDist returns the normalized distance to the nearest core (1.0 = one
	// core radius out).
	qDist := func(x, y float64) float64 {
		best := math.Inf(1)
		for _, c := range coresXY {
			q := math.Hypot(x-c.x, y-c.y) / c.radM
			if q < best {
				best = q
			}
		}
		return best
	}

	// Base land use by normalized distance to the nearest core, with
	// positional noise so class boundaries are irregular.
	for gy := 0; gy < n; gy++ {
		for gx := 0; gx < n; gx++ {
			x := -half + (float64(gx)+0.5)*spec.CellM
			y := -half + (float64(gy)+0.5)*spec.CellM
			q := qDist(x, y) + 0.25*wobble(x, y, spec.Seed)
			var class uint8
			switch {
			case q < 0.5:
				class = LUContinuousUrban
			case q < 1.0:
				class = LUHighDenseUrban
			case q < 1.8:
				class = LUMediumDenseUrban
			case q < 2.8:
				class = LULowDenseUrban
			case q < 4.0:
				class = LUVeryLowDenseUrban
			default:
				class = LUIsolatedStructures
			}
			m.landUse[gy*n+gx] = class
		}
	}
	// Coherent blobs of special classes.
	blob := func(class uint8, count int, radiusM float64) {
		for b := 0; b < count; b++ {
			// Keep special-class blobs out of the dense city cores so the
			// cores remain urban, as in real urban atlases.
			var cx, cy float64
			for tries := 0; tries < 64; tries++ {
				cx = (rng.Float64()*2 - 1) * half
				cy = (rng.Float64()*2 - 1) * half
				if qDist(cx, cy) > 1.2 {
					break
				}
			}
			rad := radiusM * (0.5 + rng.Float64())
			g0x := int((cx - rad + half) / spec.CellM)
			g1x := int((cx + rad + half) / spec.CellM)
			g0y := int((cy - rad + half) / spec.CellM)
			g1y := int((cy + rad + half) / spec.CellM)
			for gy := max(0, g0y); gy <= min(n-1, g1y); gy++ {
				for gx := max(0, g0x); gx <= min(n-1, g1x); gx++ {
					x := -half + (float64(gx)+0.5)*spec.CellM
					y := -half + (float64(gy)+0.5)*spec.CellM
					if math.Hypot(x-cx, y-cy) < rad {
						m.landUse[gy*n+gx] = class
					}
				}
			}
		}
	}
	blob(LUGreenUrban, 2+n/20, 600)
	blob(LUIndustrialCommercial, 1+n/30, 800)
	blob(LULeisureFacilities, 1+n/40, 400)
	blob(LUBarrenLands, n/40, 700)
	if rng.Float64() < 0.3 {
		blob(LUSea, 1, 2500)
	}
	if rng.Float64() < 0.2 {
		blob(LUAirSeaPorts, 1, 1200)
	}

	// PoIs: density decays with distance from the core; different kinds have
	// different core affinity (cafes cluster centrally, motorways don't).
	affinity := [NumPoI]float64{
		PoITourism: 2.5, PoICafe: 3, PoIParking: 1.2, PoIRestaurant: 2.5,
		PoIPostPolice: 1.5, PoITrafficSignal: 1.8, PoIOffice: 2.2,
		PoIPublicTransport: 1.6, PoIShop: 2.8, PoIPrimaryRoads: 1.0,
		PoISecondaryRoads: 0.8, PoIMotorways: 0.3, PoIRailwayStations: 1.4,
		PoITramStops: 2.0,
	}
	share := [NumPoI]float64{
		PoITourism: 0.04, PoICafe: 0.10, PoIParking: 0.10, PoIRestaurant: 0.12,
		PoIPostPolice: 0.03, PoITrafficSignal: 0.12, PoIOffice: 0.10,
		PoIPublicTransport: 0.10, PoIShop: 0.14, PoIPrimaryRoads: 0.05,
		PoISecondaryRoads: 0.05, PoIMotorways: 0.02, PoIRailwayStations: 0.03,
		PoITramStops: 0.10,
	}
	areaKm2 := spec.ExtentKm * spec.ExtentKm
	total := int(spec.PoIPerKm2 * areaKm2)
	for i := 0; i < total; i++ {
		kind := samplePoIKind(share, rng)
		// Rejection-sample a location biased toward the nearest core per
		// the kind's core affinity.
		var x, y float64
		for tries := 0; tries < 16; tries++ {
			x = (rng.Float64()*2 - 1) * half
			y = (rng.Float64()*2 - 1) * half
			p := math.Exp(-affinity[kind] * qDist(x, y) / 2)
			if rng.Float64() < p {
				break
			}
		}
		idx := len(m.pois[kind])
		m.pois[kind] = append(m.pois[kind], pointXY{x, y})
		k := [2]int{int(math.Floor(x / m.poiCellM)), int(math.Floor(y / m.poiCellM))}
		m.poiGrid[k] = append(m.poiGrid[k], poiRef{kind, idx})
	}
	return m
}

// wobble is a cheap deterministic pseudo-noise in [-1, 1] based on position.
func wobble(x, y float64, seed int64) float64 {
	s := math.Sin(x*0.0013+float64(seed%97)) * math.Cos(y*0.0011+float64(seed%89))
	return s
}

func samplePoIKind(share [NumPoI]float64, rng *rand.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for k, s := range share {
		acc += s
		if u < acc {
			return k
		}
	}
	return NumPoI - 1
}

// LandUseAt returns the land-use class at a location, or LUIsolatedStructures
// outside the covered region.
func (m *Map) LandUseAt(p geo.Point) uint8 {
	x, y := m.proj.ToXY(p)
	gx := int((x + m.extentM) / m.cellM)
	gy := int((y + m.extentM) / m.cellM)
	if gx < 0 || gy < 0 || gx >= m.n || gy >= m.n {
		return LUIsolatedStructures
	}
	return m.landUse[gy*m.n+gx]
}

// ContextAt computes the 26-dimensional environment context vector at a
// location: the first NumLandUse entries are the fractional share of each
// land-use class within the radius (metres); the remaining NumPoI entries
// are the counts of each PoI kind within the radius. The paper uses a
// 500 m radius.
func (m *Map) ContextAt(p geo.Point, radius float64) []float64 {
	out := make([]float64, NumAttributes)
	x0, y0 := m.proj.ToXY(p)

	// Land-use shares: sample raster cells within the radius.
	g0x := int((x0 - radius + m.extentM) / m.cellM)
	g1x := int((x0 + radius + m.extentM) / m.cellM)
	g0y := int((y0 - radius + m.extentM) / m.cellM)
	g1y := int((y0 + radius + m.extentM) / m.cellM)
	count := 0
	for gy := max(0, g0y); gy <= min(m.n-1, g1y); gy++ {
		for gx := max(0, g0x); gx <= min(m.n-1, g1x); gx++ {
			cx := -m.extentM + (float64(gx)+0.5)*m.cellM
			cy := -m.extentM + (float64(gy)+0.5)*m.cellM
			if math.Hypot(cx-x0, cy-y0) <= radius {
				out[m.landUse[gy*m.n+gx]]++
				count++
			}
		}
	}
	if count > 0 {
		for i := 0; i < NumLandUse; i++ {
			out[i] /= float64(count)
		}
	}

	// PoI counts via the spatial hash.
	r := int(math.Ceil(radius/m.poiCellM)) + 1
	k0 := [2]int{int(math.Floor(x0 / m.poiCellM)), int(math.Floor(y0 / m.poiCellM))}
	// Most points in the scanned buckets lie outside the circle. The squared
	// test rejects only what is outside by more than any rounding could
	// hide, so math.Hypot still decides every point near the edge.
	far2 := radius * radius * (1 + 1e-9)
	for dx := -r; dx <= r; dx++ {
		for dy := -r; dy <= r; dy++ {
			for _, ref := range m.poiGrid[[2]int{k0[0] + dx, k0[1] + dy}] {
				pt := m.pois[ref.kind][ref.idx]
				px, py := pt.x-x0, pt.y-y0
				if px*px+py*py <= far2 && math.Hypot(px, py) <= radius {
					out[NumLandUse+ref.kind]++
				}
			}
		}
	}
	return out
}

// Origin returns the map's anchor point.
func (m *Map) Origin() geo.Point { return m.origin }
