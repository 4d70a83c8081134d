package scenario

import (
	"fmt"
	"math/rand"

	"gendt/internal/cells"
	"gendt/internal/env"
	"gendt/internal/geo"
	"gendt/internal/radio"
	"gendt/internal/sim"
)

// BuiltRun is one compiled measurement run. It mirrors dataset.Run but
// lives here so internal/dataset can depend on internal/scenario without a
// cycle; dataset.FromScenario converts.
type BuiltRun struct {
	Scenario string
	Train    bool
	Traj     geo.Trajectory
	Meas     []sim.Measurement
}

// Build compiles a bound scenario into a simulated world and its
// measurement runs.
//
// Determinism contract: Build is a pure function of (sc, seed, scale).
// All randomness flows from three seeded streams — one deployment rng at
// seed+SeedOffset consumed by the layouts in declaration order, one route
// rng per run at seed+RouteSeedBase+runIndex, and one measurement rng per
// run at seed+DriveSeedBase+runIndex — so runs are independent of each
// other and of layout count, which is what lets their drive tests run
// concurrently without moving a bit. The order of operations below (which
// geo.Offset calls are made, multiply-then-add) is part of that contract:
// the fingerprints of scenarios/dataset-a.toml and dataset-b.toml are
// committed constants in internal/dataset/golden_test.go, and every golden
// and trained model in the repo was built against those bytes.
func Build(sc *Scenario, seed int64, scale float64) (*sim.World, []BuiltRun, error) {
	if scale <= 0 {
		scale = 1
	}
	centers := ResolveCenters(sc)
	anchorOf := func(idx int) geo.Point {
		if idx < 0 {
			return sc.Origin
		}
		return centers[idx]
	}

	// Deployment: every layout draws from one shared rng in declaration
	// order, with cell IDs chained across layouts.
	rng := rand.New(rand.NewSource(seed + sc.SeedOffset))
	var all []cells.Cell
	next := 0
	for i := range sc.Layouts {
		l := &sc.Layouts[i]
		var cs []cells.Cell
		switch l.Kind {
		case "grid":
			cs = cells.Generate(cells.DeploymentSpec{
				Origin: anchorOf(l.Center), ExtentKm: l.ExtentKm, SitesPerKm2: l.SitesPerKm2,
				Sectors: l.Sectors, PMaxDBm: l.PMaxDBm, PMaxJitter: l.PMaxJitterDB,
				Height: l.HeightM, Jitter: l.Jitter, FirstID: next,
				ReportErrM: l.ReportErrM, ReportErrDB: l.ReportErrDB,
				BeamWidth: l.BeamWidthDeg, PeakGainDBi: l.PeakGainDBi, FrontToBackDB: l.FrontToBackDB,
			}, rng)
		case "corridor":
			start := anchorOf(l.Center)
			if l.HasAnchorOffset {
				start = geo.Offset(start, l.AnchorBearing, l.AnchorDistanceM)
			}
			brg := l.Bearing
			if l.FromCenter >= 0 {
				brg = geo.Bearing(anchorOf(l.FromCenter), anchorOf(l.ToCenter))
			}
			cs = cells.GenerateCorridor(start, brg, l.LengthKm, l.SpacingM, l.PMaxDBm, next, rng)
		}
		all = append(all, cs...)
		next += len(cs)
	}
	dep := cells.NewDeployment(all, sc.Origin, sc.IndexCellM)

	// Environment map.
	var cores []env.Core
	if sc.Env.CentersAsCores {
		for _, c := range centers {
			cores = append(cores, env.Core{Center: c, RadiusKm: sc.Env.CoreRadiusKm})
		}
	}
	em := env.NewMap(env.MapSpec{
		Origin: sc.Origin, ExtentKm: sc.Env.ExtentKm, CellM: sc.Env.CellM,
		CoreKm: sc.Env.CoreKm, Cores: cores, PoIPerKm2: sc.Env.PoIPerKm2,
		Seed: seed + sc.Env.SeedOffset,
	})

	w := sim.DefaultWorld(dep, em)
	w.WorldSeed = seed + sc.WorldSeedOffset
	applyWorld(w, &sc.World)
	if sc.Pathloss != nil {
		w.Pathloss = sc.Pathloss.model()
	}

	// Measurement runs: every route is built here, in run order, and the
	// drive tests are then simulated together (see sim.World.DriveTests).
	var runs []BuiltRun
	var trs []geo.Trajectory
	var seeds []int64
	for mi := range sc.Measures {
		m := &sc.Measures[mi]
		for ri := 0; ri < m.Runs; ri++ {
			train := ri < m.Runs/2
			routeRng := rand.New(rand.NewSource(seed + m.RouteSeedBase + int64(ri)))
			prof, err := m.profileFor(ri)
			if err != nil {
				return nil, nil, err
			}
			var start geo.Point
			var bearing float64
			switch m.Placement {
			case "arc":
				var side float64
				if train {
					side = m.TrainBearing + m.BearingStep*float64(ri)
				} else {
					side = m.TestBearing + m.BearingStep*float64(ri-m.Runs/2)
				}
				start = geo.Offset(anchorOf(m.Center), side, m.RadiusBaseM+m.RadiusStepM*float64(ri%m.RadiusMod))
				if m.HasNudge {
					start = geo.Offset(start, m.NudgeBearing, m.NudgeDistanceM)
				}
				bearing = float64((m.RouteBearingBase + ri*m.RouteBearingStep) % 360)
			case "line":
				anchor := anchorOf(m.Center)
				if m.HasLineAnchorOffset {
					anchor = geo.Offset(anchor, m.LineAnchorBearing, m.LineAnchorDistanceM)
				}
				bearing = m.LineBearing
				if m.FromCenter >= 0 {
					bearing = geo.Bearing(anchorOf(m.FromCenter), anchorOf(m.ToCenter))
				}
				base := m.TrainOffsetM
				if !train {
					base = m.TestOffsetM
				}
				start = geo.Offset(anchor, bearing, base+m.OffsetStepM*float64(ri%m.OffsetMod))
			}
			tr := geo.BuildRoute(geo.RouteSpec{
				Start: start, Bearing: bearing,
				Duration: m.DurationS * scale / float64(m.Runs), Interval: m.IntervalS,
				Profile: prof, TurnEvery: m.TurnEveryS,
				TurnJitter: m.TurnJitterDeg, GridSnap: m.GridSnap,
			}, routeRng)
			runs = append(runs, BuiltRun{Scenario: m.Name, Train: train, Traj: tr})
			trs = append(trs, tr)
			seeds = append(seeds, seed+m.DriveSeedBase+int64(ri))
		}
	}
	for i, ms := range w.DriveTests(trs, seeds) {
		runs[i].Meas = ms
	}
	return w, runs, nil
}

// ResolveCenters turns [[center]] offsets into points. A zero distance
// yields the origin verbatim: geo.Offset(p, b, 0) is not a bit-exact
// identity, and the pinned Dataset B anchors its first city at the origin
// itself.
func ResolveCenters(sc *Scenario) []geo.Point {
	out := make([]geo.Point, len(sc.Centers))
	for i, c := range sc.Centers {
		if c.DistanceM == 0 {
			out[i] = sc.Origin
			continue
		}
		out[i] = geo.Offset(sc.Origin, c.Bearing, c.DistanceM)
	}
	return out
}

// applyWorld overlays the presence-flagged overrides onto a default world.
func applyWorld(w *sim.World, ws *WorldSpec) {
	set := func(dst *float64, o optFloat) {
		if o.Set {
			*dst = o.V
		}
	}
	set(&w.VisibleRange, ws.VisibleRangeM)
	set(&w.EnvRadius, ws.EnvRadiusM)
	set(&w.NoiseFloorDBm, ws.NoiseFloorDBm)
	set(&w.StaticShadowSigmaDB, ws.StaticShadowSigmaDB)
	set(&w.StaticShadowCorrM, ws.StaticShadowCorrM)
	set(&w.ShadowSigmaDB, ws.ShadowSigmaDB)
	set(&w.ShadowDecorrM, ws.ShadowDecorrM)
	set(&w.FadingSigmaDB, ws.FadingSigmaDB)
	set(&w.HysteresisDB, ws.HysteresisDB)
	if ws.TimeToTrigger.Set {
		w.TimeToTrigger = ws.TimeToTrigger.V
	}
	set(&w.L3Alpha, ws.L3Alpha)
	set(&w.LoadMean, ws.LoadMean)
	set(&w.LoadAlpha, ws.LoadAlpha)
	set(&w.LoadStd, ws.LoadStd)
}

// model materializes the pathloss override: reference parameters replace
// the defaults when set, and per-class exponents overlay the default
// land-use table (unconfigured classes keep their 3GPP-flavoured values).
func (p *PathlossSpec) model() *radio.PathlossModel {
	m := radio.NewPathloss(p.RefLossDB, p.RefDistM, p.DefaultExp, nil)
	for class, exp := range p.Exponents {
		m.Exponents[class] = exp
	}
	return m
}

// profileFor resolves the mobility profile for run index ri: Profile2 (if
// set) takes the odd run indices, modelling mixed-mode measurement
// campaigns (e.g. alternating pedestrian and vehicle runs).
func (m *MeasureSpec) profileFor(ri int) (geo.SpeedProfile, error) {
	name := m.Profile
	if m.Profile2 != "" && ri%2 == 1 {
		name = m.Profile2
	}
	switch name {
	case "walk":
		return geo.WalkProfile, nil
	case "bus":
		return geo.BusProfile, nil
	case "tram":
		return geo.TramProfile, nil
	case "citydrive":
		return geo.CityDriveProfile, nil
	case "highway":
		return geo.HighwayProfile, nil
	case "custom":
		if m.SpeedMean <= 0 || m.SpeedMax < m.SpeedMean || m.SpeedMin < 0 || m.SpeedMin > m.SpeedMean {
			return geo.SpeedProfile{}, fmt.Errorf("%w: [measure] %s: custom profile needs 0 <= speed_min <= speed_mean <= speed_max", ErrOutOfRange, m.Name)
		}
		if m.SpeedStd < 0 || m.SpeedAlpha <= 0 || m.SpeedAlpha >= 1 {
			return geo.SpeedProfile{}, fmt.Errorf("%w: [measure] %s: custom profile needs speed_std >= 0 and speed_alpha in (0,1)", ErrOutOfRange, m.Name)
		}
		return geo.SpeedProfile{Mean: m.SpeedMean, Std: m.SpeedStd, Min: m.SpeedMin, Max: m.SpeedMax, Alpha: m.SpeedAlpha}, nil
	default:
		return geo.SpeedProfile{}, fmt.Errorf("%w: [measure] %s: unknown profile %q (want walk, bus, tram, citydrive, highway, or custom)", ErrBadValue, m.Name, name)
	}
}
