// Package sim glues geo, cells, env, and radio into a drive-test simulator:
// given a trajectory it produces the timestamped multi-KPI measurement
// series (with full context annotation) that substitutes for the paper's
// field datasets. Repeated runs over the same trajectory differ in
// shadowing realization, fading, and cell load — reproducing the
// stochasticity the paper documents in Figures 1–2.
package sim

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"gendt/internal/cells"
	"gendt/internal/env"
	"gendt/internal/geo"
	"gendt/internal/radio"
)

// Measurement is one drive-test sample: everything a tool like Nemo Handy
// would record at one tick, plus the context GenDT conditions on.
type Measurement struct {
	T   float64   // seconds
	Loc geo.Point // device location

	// Radio KPIs of the serving cell.
	RSRP float64 // dBm
	RSRQ float64 // dB
	SINR float64 // dB
	CQI  float64 // 1..15
	RSSI float64 // dBm

	ServingCell int  // serving cell id
	Handover    bool // whether a handover completed at this sample

	// Context annotations.
	Visible []cells.VisibleCell // potential serving cells within d_s
	EnvCtx  []float64           // 26-attribute environment context
	// VisibleLoad is the per-visible-cell traffic load at this instant
	// (parallel to Visible). In the paper's open-loop design this is a
	// hidden factor; the closed-loop extension (§7.2) conditions on it.
	VisibleLoad []float64
}

// KPI returns the measurement's value for a radio.KPI* channel index.
func (m *Measurement) KPI(k int) float64 {
	switch k {
	case radio.KPIRSRP:
		return m.RSRP
	case radio.KPIRSRQ:
		return m.RSRQ
	case radio.KPISINR:
		return m.SINR
	case radio.KPICQI:
		return m.CQI
	case radio.KPIServingCell:
		return float64(m.ServingCell)
	default:
		return 0
	}
}

// Series extracts one KPI channel as a flat series from measurements.
func Series(ms []Measurement, kpi int) []float64 {
	out := make([]float64, len(ms))
	for i := range ms {
		out[i] = ms[i].KPI(kpi)
	}
	return out
}

// World bundles the static substrate a simulator runs against.
type World struct {
	Deployment *cells.Deployment
	Env        *env.Map
	Pathloss   *radio.PathlossModel

	// VisibleRange is d_s: candidates within this many metres of the device
	// are potential serving cells (paper: ~2 km city, ~4 km highway).
	VisibleRange float64
	// EnvRadius is the environment-context radius (paper: 500 m).
	EnvRadius float64
	// NoiseFloorDBm is thermal noise plus receiver noise figure.
	NoiseFloorDBm float64
	// StaticShadowSigmaDB parameterizes the repeatable, location-dependent
	// shadowing component (buildings/terrain), shared by all runs against
	// this world. ShadowSigmaDB / ShadowDecorrM parameterize the per-run
	// dynamic remainder.
	StaticShadowSigmaDB float64
	StaticShadowCorrM   float64
	WorldSeed           int64
	ShadowSigmaDB       float64
	ShadowDecorrM       float64
	// FadingSigmaDB is the per-sample fast-fading spread.
	FadingSigmaDB float64
	// LoadMean / LoadAlpha / LoadStd parameterize the hidden per-cell
	// traffic-load process (mean-reverting AR(1) in [0,1]) each drive test
	// runs against. DefaultWorld sets the paper-flavoured values; scenario
	// configs may override them to model busier or burstier networks.
	LoadMean  float64
	LoadAlpha float64
	LoadStd   float64
	// HysteresisDB / TimeToTrigger parameterize handover.
	HysteresisDB  float64
	TimeToTrigger int
	// L3Alpha is the 3GPP layer-3 filtering coefficient applied to per-cell
	// power before reporting and cell selection: filtered = α·instant +
	// (1-α)·previous. Real measurement tools report L3-filtered KPIs, which
	// makes every reported value explicitly history-dependent.
	L3Alpha float64
}

// DefaultWorld wires a world with paper-flavoured defaults over the given
// deployment and environment.
func DefaultWorld(dep *cells.Deployment, em *env.Map) *World {
	return &World{
		Deployment:          dep,
		Env:                 em,
		Pathloss:            radio.DefaultPathloss(),
		VisibleRange:        2500,
		EnvRadius:           500,
		NoiseFloorDBm:       -116,
		StaticShadowSigmaDB: 6,
		StaticShadowCorrM:   80,
		ShadowSigmaDB:       3,
		ShadowDecorrM:       60,
		FadingSigmaDB:       2.0,
		LoadMean:            0.45,
		LoadAlpha:           0.97,
		LoadStd:             0.25,
		HysteresisDB:        4,
		TimeToTrigger:       3,
		L3Alpha:             0.3,
	}
}

// DriveTest simulates one measurement run over the trajectory. The rng
// seeds this run's shadowing realization, fading, and load processes, so
// distinct rngs yield distinct (but statistically consistent) runs.
func (w *World) DriveTest(tr geo.Trajectory, rng *rand.Rand) []Measurement {
	shadow := radio.NewShadowField(w.ShadowSigmaDB, w.ShadowDecorrM, rng)
	static := radio.NewStaticShadow(w.StaticShadowSigmaDB, w.StaticShadowCorrM, w.WorldSeed, w.Env.Origin())
	loadMean, loadAlpha, loadStd := w.LoadMean, w.LoadAlpha, w.LoadStd
	if loadAlpha == 0 { // zero-value World: fall back to the classic process
		loadMean, loadAlpha, loadStd = 0.45, 0.97, 0.25
	}
	load := radio.NewLoadProcess(loadMean, loadAlpha, loadStd, rng)
	sel := radio.NewServingSelector(w.HysteresisDB, w.TimeToTrigger)
	alpha := w.L3Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 1 // no filtering
	}
	l3 := make(map[int]float64) // per-cell L3-filtered power

	out := make([]Measurement, 0, len(tr))
	for _, s := range tr {
		clutter := w.Env.LandUseAt(s.Point)
		vis := w.Deployment.Visible(s.Point, w.VisibleRange)
		links := make([]radio.Link, 0, len(vis))
		// The sectors of a site share Site and Distance, so Visible lists
		// them side by side: one bearing serves them all.
		var site geo.Point
		var brg float64
		for i, v := range vis {
			if i == 0 || v.Cell.Site != site {
				site, brg = v.Cell.Site, geo.Bearing(v.Cell.Site, s.Point)
			}
			sh := static.Sample(v.Cell.ID, s.Point) + shadow.Sample(v.Cell.ID, s.Point)
			p := radio.RxPowerDBm(v.Cell, brg, v.Distance, w.Pathloss, clutter,
				sh, radio.FastFading(w.FadingSigmaDB, rng))
			if prev, ok := l3[v.Cell.ID]; ok {
				p = alpha*p + (1-alpha)*prev
			}
			l3[v.Cell.ID] = p
			links = append(links, radio.Link{CellID: v.Cell.ID, RSRPdBm: p, Load: load.Step(v.Cell.ID)})
		}
		servingID, ho := sel.Step(links)
		loads := make([]float64, len(links))
		for i, l := range links {
			loads[i] = l.Load
		}
		m := Measurement{
			T: s.T, Loc: s.Point,
			ServingCell: servingID, Handover: ho,
			Visible:     vis,
			EnvCtx:      w.Env.ContextAt(s.Point, w.EnvRadius),
			VisibleLoad: loads,
		}
		if servingID >= 0 {
			var serving radio.Link
			others := make([]radio.Link, 0, len(links))
			for _, l := range links {
				if l.CellID == servingID {
					serving = l
				} else {
					others = append(others, l)
				}
			}
			m.RSRP = radio.ClampKPI(radio.KPIRSRP, serving.RSRPdBm)
			m.RSSI, m.RSRQ, m.SINR, m.CQI = radio.DeriveKPIs(serving, others, w.NoiseFloorDBm)
		} else {
			// Out of coverage: report floor values.
			m.RSRP, m.RSRQ, m.SINR, m.CQI = radio.RSRPMin, radio.RSRQMin, radio.SINRMin, radio.CQIMin
		}
		out = append(out, m)
	}
	return out
}

// DriveTests simulates one run per trajectory: out[i] is exactly
// DriveTest(trs[i], rand.New(rand.NewSource(seeds[i]))). A run reads the
// world and nothing else shared, and draws only from its own rng, so the
// runs are spread over up to GOMAXPROCS goroutines and placed by index —
// the result is the same bits at any width.
func (w *World) DriveTests(trs []geo.Trajectory, seeds []int64) [][]Measurement {
	if len(trs) != len(seeds) {
		panic("sim: DriveTests needs one seed per trajectory")
	}
	out := make([][]Measurement, len(trs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(trs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(trs); i = int(next.Add(1)) - 1 {
				out[i] = w.DriveTest(trs[i], rand.New(rand.NewSource(seeds[i])))
			}
		}()
	}
	wg.Wait()
	return out
}

// RepeatedRuns performs n independent measurement runs over the same
// trajectory (the setup behind the paper's Figures 1–2), using sequential
// seeds derived from base.
func (w *World) RepeatedRuns(tr geo.Trajectory, n int, base int64) [][]Measurement {
	trs := make([]geo.Trajectory, n)
	seeds := make([]int64, n)
	for i := range n {
		trs[i], seeds[i] = tr, base+int64(i)
	}
	return w.DriveTests(trs, seeds)
}

// Annotate builds context-only measurements for a trajectory: visible
// cells and environment context per step, with no radio KPIs (they are
// what a GenDT model will generate). This is the operational entry point
// of the GenDT workflow (paper Figure 5): an operator supplies a new
// trajectory, annotates it with the context they already hold, and feeds
// it to a trained model — no field measurement involved.
//
// maxCells > 0 keeps only the nearest maxCells visible cells per step —
// exactly the prefix a model with that cell cap prepares from, found
// without sorting the full set; 0 keeps every visible cell.
func (w *World) Annotate(tr geo.Trajectory, maxCells int) []Measurement {
	out := make([]Measurement, 0, len(tr))
	for _, s := range tr {
		var vis []cells.VisibleCell
		if maxCells > 0 {
			vis = w.Deployment.Nearest(s.Point, w.VisibleRange, maxCells)
		} else {
			vis = w.Deployment.Visible(s.Point, w.VisibleRange)
		}
		out = append(out, Measurement{
			T: s.T, Loc: s.Point,
			ServingCell: -1,
			Visible:     vis,
			EnvCtx:      w.Env.ContextAt(s.Point, w.EnvRadius),
		})
	}
	return out
}
