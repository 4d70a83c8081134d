// Package dataset synthesizes the two drive-test measurement datasets the
// paper evaluates on (§2.3) from the simulator substrate: Dataset A
// (walk/bus/tram around one city centre at 1 s granularity, à la Nemo
// Handy) and Dataset B (city driving and highways over a multi-city region
// at coarser Android-API granularity, à la the CNI Cell Tracker dataset).
// It also provides the geographically disjoint train/test split, the
// 23-subset partition used by the measurement-efficiency experiment
// (§6.2), the long/complex 3-city trajectory (§6.1.3), and the summary
// statistics of Tables 1–2.
package dataset

import (
	"fmt"
	"math/rand"
	"strings"

	"gendt/internal/cells"
	"gendt/internal/geo"
	"gendt/internal/metrics"
	"gendt/internal/radio"
	"gendt/internal/scenario"
	"gendt/internal/sim"
)

// Scenario names for Dataset A (paper Table 1).
const (
	ScenarioWalk = "Walk"
	ScenarioBus  = "Bus"
	ScenarioTram = "Tram"
)

// Scenario names for Dataset B (paper Table 2).
const (
	ScenarioCity1    = "City Center 1"
	ScenarioCity2    = "City Center 2"
	ScenarioHighway1 = "Highway 1"
	ScenarioHighway2 = "Highway 2"
)

// Run is one measurement campaign: a trajectory and its measurements.
type Run struct {
	Scenario string
	Train    bool // member of the training split
	Traj     geo.Trajectory
	Meas     []sim.Measurement
}

// Dataset bundles a simulated world and the measurement runs taken in it.
type Dataset struct {
	Name  string
	World *sim.World
	Runs  []Run
}

// Spec controls dataset synthesis.
type Spec struct {
	Seed int64
	// Scale multiplies the per-scenario measurement duration; 1.0
	// approximates the paper's sample counts (Tables 1-2), smaller values
	// give proportionally shorter runs for fast tests.
	Scale float64
}

func (s Spec) scale() float64 {
	if s.Scale <= 0 {
		return 1
	}
	return s.Scale
}

// TrainRuns returns the runs in the training split.
func (d *Dataset) TrainRuns() []Run { return d.filter(true) }

// TestRuns returns the runs in the held-out testing split.
func (d *Dataset) TestRuns() []Run { return d.filter(false) }

func (d *Dataset) filter(train bool) []Run {
	var out []Run
	for _, r := range d.Runs {
		if r.Train == train {
			out = append(out, r)
		}
	}
	return out
}

// ScenarioRuns returns all runs of one scenario.
func (d *Dataset) ScenarioRuns(name string) []Run {
	var out []Run
	for _, r := range d.Runs {
		if r.Scenario == name {
			out = append(out, r)
		}
	}
	return out
}

// Scenarios returns the distinct scenario names in declaration order.
func (d *Dataset) Scenarios() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range d.Runs {
		if !seen[r.Scenario] {
			seen[r.Scenario] = true
			out = append(out, r.Scenario)
		}
	}
	return out
}

// NewByName builds a dataset by scenario name (case-insensitive) — the
// shared world handle long-lived services construct once and hold
// resident, so route annotation does not rebuild the deployment and
// environment map per request. Names resolve against the scenario
// registry: the committed configs under scenarios/ ("A", "B", "NR5G",
// "Tunnel", "Suburb", ...) plus anything registered at runtime via
// scenario.RegisterFile (the CLIs' -scenario-file flag).
func NewByName(name string, spec Spec) (*Dataset, error) {
	if sc, ok := scenario.Lookup(name); ok {
		return FromScenario(sc, spec)
	}
	return nil, fmt.Errorf("dataset: unknown dataset %q (registered scenarios: %s)",
		name, strings.Join(scenario.Names(), ", "))
}

// NewDatasetA builds the Dataset A analogue (scenarios/dataset-a.toml): one
// city with a dense core, three mobility scenarios (walk, bus, tram)
// measured at 1 s granularity, split into train/test by geography.
func NewDatasetA(spec Spec) *Dataset { return mustBuild("A", spec) }

// NewDatasetB builds the Dataset B analogue (scenarios/dataset-b.toml): a
// wide region with five city cores and connecting highway corridors, four
// measurement scenarios (two city drives, two highways) at the coarser
// granularities of Table 2. The long/complex trajectory of §6.1.3 is
// produced by LongComplexRun against the same world.
func NewDatasetB(spec Spec) *Dataset { return mustBuild("B", spec) }

// mustBuild is NewByName for the two committed configs the paper's
// experiments are written against: they are parsed and bound when the
// scenario package loads, so a failure here is a programming error.
func mustBuild(name string, spec Spec) *Dataset {
	d, err := NewByName(name, spec)
	if err != nil {
		panic("dataset: builtin scenario " + name + ": " + err.Error())
	}
	return d
}

// CityCenters returns the anchors of Dataset B's cities, in [[center]]
// order: the two scenario cities plus the three long-trajectory cities
// (unused in training), mirroring the paper's Dortmund-region layout.
func CityCenters() []geo.Point {
	sc, ok := scenario.Lookup("B")
	if !ok {
		panic("dataset: builtin scenario B is not registered")
	}
	return scenario.ResolveCenters(sc)
}

// LongComplexRun builds the paper's §6.1.3 test workload against Dataset
// B's world: a ~2230 s (scaled) trajectory spanning three cities none of
// which appear in the training runs, alternating inner-city driving with
// highway stretches. It returns the run (marked as test data).
func LongComplexRun(d *Dataset, spec Spec) Run {
	sc := spec.scale()
	centers := CityCenters()
	c3, c4, c5 := centers[2], centers[3], centers[4]
	mk := func(seed int64, start geo.Point, bearing float64, dur float64, prof geo.SpeedProfile, grid bool, turn float64) geo.Trajectory {
		return geo.BuildRoute(geo.RouteSpec{
			Start: start, Bearing: bearing, Duration: dur, Interval: 1,
			Profile: prof, TurnEvery: turn, TurnJitter: 30, GridSnap: grid,
		}, rand.New(rand.NewSource(spec.Seed+seed)))
	}
	cityDur := 400 * sc
	hwDur := 350 * sc
	segments := []geo.Trajectory{
		mk(31, geo.Offset(c3, 10, 500), 120, cityDur, geo.CityDriveProfile, true, 50),
		mk(32, c3, geo.Bearing(c3, c4), hwDur, geo.HighwayProfile, false, 0),
		mk(33, geo.Offset(c4, 200, 400), 40, cityDur, geo.CityDriveProfile, true, 50),
		mk(34, c4, geo.Bearing(c4, c5), hwDur, geo.HighwayProfile, false, 0),
		mk(35, geo.Offset(c5, 300, 400), 250, cityDur, geo.CityDriveProfile, true, 50),
	}
	tr := geo.Concat(1, segments...)
	ms := d.World.DriveTest(tr, rand.New(rand.NewSource(spec.Seed+99)))
	return Run{Scenario: "Long", Train: false, Traj: tr, Meas: ms}
}

// Partition splits the training runs of a dataset into n geographically
// contiguous, non-overlapping subsets (the 23 subsets of §6.2.2) by slicing
// each run into n consecutive chunks. Each subset is returned as a list of
// runs.
func Partition(runs []Run, n int) [][]Run {
	out := make([][]Run, n)
	for _, r := range runs {
		per := len(r.Meas) / n
		if per == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			lo := i * per
			hi := lo + per
			if i == n-1 {
				hi = len(r.Meas)
			}
			sub := Run{
				Scenario: r.Scenario, Train: r.Train,
				Traj: r.Traj[lo:hi], Meas: r.Meas[lo:hi],
			}
			out[i] = append(out[i], sub)
		}
	}
	return out
}

// Stats summarizes one scenario as the rows of the paper's Tables 1-2.
type Stats struct {
	Scenario         string
	TimeGranularity  float64
	AvgVelocity      float64
	AvgServingDwell  float64 // mean seconds between serving-cell changes
	AvgRSRP, StdRSRP float64
	ROCRSRP          float64
	AvgRSRQ, StdRSRQ float64
	ROCRSRQ          float64
	Samples          int
}

// ScenarioStats computes Table 1/2-style statistics for one scenario.
func (d *Dataset) ScenarioStats(name string) Stats {
	runs := d.ScenarioRuns(name)
	st := Stats{Scenario: name}
	var rsrp, rsrq []float64
	var gran, vel []float64
	var dwellTotal float64
	var dwellCount int
	for _, r := range runs {
		st.Samples += len(r.Meas)
		rsrp = append(rsrp, sim.Series(r.Meas, radio.KPIRSRP)...)
		rsrq = append(rsrq, sim.Series(r.Meas, radio.KPIRSRQ)...)
		gran = append(gran, r.Traj.TimeGranularity())
		vel = append(vel, r.Traj.AvgSpeed())
		ids := sim.Series(r.Meas, radio.KPIServingCell)
		times := radio.InterHandoverTimes(ids, r.Traj.TimeGranularity())
		for _, t := range times {
			dwellTotal += t
			dwellCount++
		}
	}
	st.TimeGranularity = metrics.Mean(gran)
	st.AvgVelocity = metrics.Mean(vel)
	if dwellCount > 0 {
		st.AvgServingDwell = dwellTotal / float64(dwellCount)
	}
	st.AvgRSRP, st.StdRSRP = metrics.Mean(rsrp), metrics.Std(rsrp)
	st.AvgRSRQ, st.StdRSRQ = metrics.Mean(rsrq), metrics.Std(rsrq)
	st.ROCRSRP = metrics.RateOfChange(rsrp)
	st.ROCRSRQ = metrics.RateOfChange(rsrq)
	return st
}

// String renders the stats as one table row.
func (s Stats) String() string {
	return fmt.Sprintf("%-16s gran=%.1fs v=%.1fm/s dwell=%.1fs RSRP=%.1f±%.1f (ROC %.2f) RSRQ=%.1f±%.1f (ROC %.2f) n=%d",
		s.Scenario, s.TimeGranularity, s.AvgVelocity, s.AvgServingDwell,
		s.AvgRSRP, s.StdRSRP, s.ROCRSRP, s.AvgRSRQ, s.StdRSRQ, s.ROCRSRQ, s.Samples)
}

// WithExtraCells returns a copy of the dataset's world whose deployment
// additionally contains the given cells — the substrate for the paper's
// §C.2 what-if analysis (e.g. studying the effect of deploying a new cell
// before building it). The original world is not modified.
func (d *Dataset) WithExtraCells(extra []cells.Cell) *sim.World {
	all := append(append([]cells.Cell{}, d.World.Deployment.Cells...), extra...)
	w := *d.World
	w.Deployment = cells.NewDeployment(all, d.World.Env.Origin(), 1000)
	return &w
}

// NewSiteAt builds the sectors of a hypothetical new cell site at a
// location — the input to what-if analyses (§C.2). IDs start at firstID.
func NewSiteAt(at geo.Point, firstID, sectors int, pMaxDBm float64) []cells.Cell {
	if sectors < 1 {
		sectors = 1
	}
	out := make([]cells.Cell, 0, sectors)
	for s := 0; s < sectors; s++ {
		out = append(out, cells.Cell{
			ID: firstID + s, Site: at, PMaxDBm: pMaxDBm,
			Azimuth: float64(s) * 360 / float64(sectors), BeamWidth: 120, Height: 25,
		})
	}
	return out
}
