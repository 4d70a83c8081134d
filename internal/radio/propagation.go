// Package radio implements the LTE radio-link substrate used to synthesize
// ground-truth drive-test measurements: log-distance pathloss, sector
// antenna gain, spatially correlated shadowing, fast fading, a hidden
// cell-load process, serving-cell selection with A3 hysteresis, and the
// RSRP/RSSI/RSRQ/SINR/CQI derivations of the paper's §2.2.
package radio

import (
	"math"
	"math/rand"

	"gendt/internal/cells"
	"gendt/internal/env"
	"gendt/internal/geo"
)

// PathlossModel is a log-distance pathloss model whose exponent depends on
// the local clutter (land-use class), so dense urban areas attenuate more
// steeply than open highway terrain.
type PathlossModel struct {
	// RefLossDB is the loss at RefDist metres in free-ish space.
	RefLossDB float64
	RefDist   float64
	// ExponentFor maps land-use class to pathloss exponent.
	Exponents map[uint8]float64
	// DefaultExp is used for classes absent from Exponents.
	DefaultExp float64
}

// DefaultPathloss returns a model with 3GPP-flavoured parameters.
func DefaultPathloss() *PathlossModel {
	return &PathlossModel{
		RefLossDB: 78, // ~2 GHz at 10 m with typical antenna heights
		RefDist:   10,
		Exponents: map[uint8]float64{
			env.LUContinuousUrban:      3.9,
			env.LUHighDenseUrban:       3.7,
			env.LUMediumDenseUrban:     3.5,
			env.LULowDenseUrban:        3.3,
			env.LUVeryLowDenseUrban:    3.1,
			env.LUIsolatedStructures:   2.9,
			env.LUGreenUrban:           3.0,
			env.LUIndustrialCommercial: 3.4,
			env.LUAirSeaPorts:          2.8,
			env.LULeisureFacilities:    3.1,
			env.LUBarrenLands:          2.8,
			env.LUSea:                  2.5,
		},
		DefaultExp: 3.2,
	}
}

// NewPathloss builds a pathloss model from explicit parameters — the
// constructor scenario configs compile through. byClass maps land-use
// classes to exponents; classes absent from it fall back to defaultExp.
// A nil byClass keeps DefaultPathloss's per-class table so configs can
// override just the reference loss or the default exponent.
func NewPathloss(refLossDB, refDistM, defaultExp float64, byClass map[uint8]float64) *PathlossModel {
	m := DefaultPathloss()
	if refLossDB != 0 {
		m.RefLossDB = refLossDB
	}
	if refDistM > 0 {
		m.RefDist = refDistM
	}
	if defaultExp > 0 {
		m.DefaultExp = defaultExp
	}
	if byClass != nil {
		m.Exponents = byClass
	}
	return m
}

// LossDB returns the pathloss in dB over distance metres in the given
// land-use clutter class.
func (m *PathlossModel) LossDB(distance float64, clutter uint8) float64 {
	if distance < m.RefDist {
		distance = m.RefDist
	}
	exp, ok := m.Exponents[clutter]
	if !ok {
		exp = m.DefaultExp
	}
	return m.RefLossDB + 10*exp*math.Log10(distance/m.RefDist)
}

// ShadowField produces spatially correlated log-normal shadowing per cell:
// a device moving through the field sees shadowing that decorrelates over
// DecorrM metres (Gudmundson model). Each (cell, run) pair gets an
// independent field so that repeated runs over the same route differ, as in
// the paper's Figure 1.
type ShadowField struct {
	SigmaDB float64 // shadowing standard deviation
	DecorrM float64 // decorrelation distance

	state map[int]*shadowState
	rng   *rand.Rand
	decay shadowDecay // the last step's decay factors
}

// shadowDecay memoises the Gauss–Markov factors of one step from a to b.
// Every cell seen at a is sampled at b in turn, and the factors are a pure
// function of (a, b, DecorrM), so all but the first reuse them bit for
// bit. A cell back in view after a gap still moved from its own last
// point, which misses the memo and is computed afresh.
type shadowDecay struct {
	a, b       geo.Point
	decorrM    float64
	rho, innov float64 // exp(-d/DecorrM) and sqrt(1-rho²)
	ok         bool
}

type shadowState struct {
	value float64
	last  geo.Point
	init  bool
}

// NewShadowField creates a shadow field with its own RNG stream.
func NewShadowField(sigmaDB, decorrM float64, rng *rand.Rand) *ShadowField {
	return &ShadowField{
		SigmaDB: sigmaDB,
		DecorrM: decorrM,
		state:   make(map[int]*shadowState),
		rng:     rng,
	}
}

// Sample returns the shadowing in dB for the given cell as seen from loc,
// evolving the per-cell Gauss–Markov process by the distance moved since
// the previous call for that cell.
func (f *ShadowField) Sample(cellID int, loc geo.Point) float64 {
	st, ok := f.state[cellID]
	if !ok {
		st = &shadowState{}
		f.state[cellID] = st
	}
	if !st.init {
		st.value = f.SigmaDB * f.rng.NormFloat64()
		st.last = loc
		st.init = true
		return st.value
	}
	m := &f.decay
	if !m.ok || m.a != st.last || m.b != loc || m.decorrM != f.DecorrM {
		rho := math.Exp(-geo.Distance(st.last, loc) / f.DecorrM)
		*m = shadowDecay{a: st.last, b: loc, decorrM: f.DecorrM, rho: rho, innov: math.Sqrt(1 - rho*rho), ok: true}
	}
	st.value = m.rho*st.value + f.SigmaDB*m.innov*f.rng.NormFloat64()
	st.last = loc
	return st.value
}

// FastFading returns a per-sample fast-fading term in dB. We use a
// Gaussian approximation of averaged Rayleigh fading (measurement tools
// report KPIs averaged over many resource elements, which Gaussianizes the
// per-sample fading).
func FastFading(sigmaDB float64, rng *rand.Rand) float64 {
	return sigmaDB * rng.NormFloat64()
}

// LoadProcess is the hidden per-cell load factor the paper cites as one of
// the unobserved factors the generator's noise must absorb. It evolves as a
// mean-reverting process in [0, 1].
type LoadProcess struct {
	Mean  float64
	Alpha float64 // AR(1) coefficient per step
	Std   float64

	load map[int]float64
	rng  *rand.Rand
}

// NewLoadProcess creates a load process with its own RNG stream.
func NewLoadProcess(mean, alpha, std float64, rng *rand.Rand) *LoadProcess {
	return &LoadProcess{Mean: mean, Alpha: alpha, Std: std, load: make(map[int]float64), rng: rng}
}

// Step advances and returns the load of a cell, clamped to [0.05, 0.95].
func (lp *LoadProcess) Step(cellID int) float64 {
	v, ok := lp.load[cellID]
	if !ok {
		v = lp.Mean + lp.Std*lp.rng.NormFloat64()
	}
	v = lp.Alpha*v + (1-lp.Alpha)*lp.Mean + lp.Std*math.Sqrt(1-lp.Alpha*lp.Alpha)*lp.rng.NormFloat64()
	v = math.Max(0.05, math.Min(0.95, v))
	lp.load[cellID] = v
	return v
}

// RxPowerDBm computes the received reference-signal power from a cell at a
// device dist metres from its site, at bearing brg = geo.Bearing(c.Site,
// loc) from it, given pathloss, antenna gain, shadowing, and fading terms.
func RxPowerDBm(c *cells.Cell, brg, dist float64, pl *PathlossModel, clutter uint8, shadowDB, fadingDB float64) float64 {
	// Use 3D distance including antenna height.
	d3 := math.Hypot(dist, c.Height)
	gain := cells.SectorGainFromBearing(c, brg)
	// Reference signal power: total sector power spread over 12*N_RB
	// subcarriers; with N_RB=50 (10 MHz) RSRP per RE is PMax - 10log10(600).
	const refShareDB = 27.78 // 10*log10(12*50)
	return c.PMaxDBm - refShareDB + gain - pl.LossDB(d3, clutter) + shadowDB + fadingDB
}
