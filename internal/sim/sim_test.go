package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gendt/internal/cells"
	"gendt/internal/env"
	"gendt/internal/geo"
	"gendt/internal/radio"
)

var origin = geo.Point{Lat: 51.5, Lon: 7.46}

func testWorld(t testing.TB) *World {
	rng := rand.New(rand.NewSource(9))
	cs := cells.Generate(cells.DeploymentSpec{
		Origin: origin, ExtentKm: 10, SitesPerKm2: 3, Sectors: 3, Jitter: 0.2,
	}, rng)
	dep := cells.NewDeployment(cs, origin, 1000)
	em := env.NewMap(env.MapSpec{Origin: origin, ExtentKm: 12, CoreKm: 2, PoIPerKm2: 50, Seed: 3})
	return DefaultWorld(dep, em)
}

func cityRoute(duration float64, seed int64) geo.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	return geo.BuildRoute(geo.RouteSpec{
		Start: origin, Bearing: 30, Duration: duration, Interval: 1,
		Profile: geo.CityDriveProfile, TurnEvery: 60, GridSnap: true,
	}, rng)
}

func TestDriveTestProducesOneMeasurementPerSample(t *testing.T) {
	w := testWorld(t)
	tr := cityRoute(120, 1)
	ms := w.DriveTest(tr, rand.New(rand.NewSource(10)))
	if len(ms) != len(tr) {
		t.Fatalf("got %d measurements for %d samples", len(ms), len(tr))
	}
}

func TestDriveTestKPIsInRange(t *testing.T) {
	w := testWorld(t)
	ms := w.DriveTest(cityRoute(300, 2), rand.New(rand.NewSource(11)))
	for i, m := range ms {
		if m.RSRP < radio.RSRPMin || m.RSRP > radio.RSRPMax {
			t.Fatalf("sample %d RSRP %v out of range", i, m.RSRP)
		}
		if m.RSRQ < radio.RSRQMin || m.RSRQ > radio.RSRQMax {
			t.Fatalf("sample %d RSRQ %v out of range", i, m.RSRQ)
		}
		if m.SINR < radio.SINRMin || m.SINR > radio.SINRMax {
			t.Fatalf("sample %d SINR %v out of range", i, m.SINR)
		}
		if m.CQI < 1 || m.CQI > 15 {
			t.Fatalf("sample %d CQI %v out of range", i, m.CQI)
		}
		if len(m.EnvCtx) != env.NumAttributes {
			t.Fatalf("sample %d env context has %d attrs", i, len(m.EnvCtx))
		}
	}
}

func TestDriveTestPlausibleRSRPStats(t *testing.T) {
	w := testWorld(t)
	ms := w.DriveTest(cityRoute(900, 3), rand.New(rand.NewSource(12)))
	series := Series(ms, radio.KPIRSRP)
	mean, std := meanStd(series)
	// Paper Tables 1-2 report means around -84..-88 dBm, std ~7-11 dB.
	if mean < -105 || mean > -65 {
		t.Errorf("RSRP mean = %v dBm, implausible for urban drive", mean)
	}
	if std < 3 || std > 16 {
		t.Errorf("RSRP std = %v dB, implausible", std)
	}
}

func TestDriveTestServingCellChanges(t *testing.T) {
	w := testWorld(t)
	ms := w.DriveTest(cityRoute(900, 4), rand.New(rand.NewSource(13)))
	changes := 0
	for i := 1; i < len(ms); i++ {
		if ms[i].ServingCell != ms[i-1].ServingCell {
			changes++
		}
	}
	if changes == 0 {
		t.Error("no serving-cell changes over a 15-minute city drive")
	}
	// Dwell time should be tens of seconds as in paper Tables 1-2.
	dwell := float64(len(ms)) / float64(changes+1)
	if dwell < 5 || dwell > 600 {
		t.Errorf("mean serving-cell dwell = %v s, implausible", dwell)
	}
}

func TestRepeatedRunsDiffer(t *testing.T) {
	w := testWorld(t)
	tr := cityRoute(120, 5)
	runs := w.RepeatedRuns(tr, 2, 100)
	a := Series(runs[0], radio.KPIRSRP)
	b := Series(runs[1], radio.KPIRSRP)
	diff := 0.0
	for i := range a {
		diff += math.Abs(a[i] - b[i])
	}
	diff /= float64(len(a))
	if diff < 0.5 {
		t.Errorf("repeated runs nearly identical (mean |diff| = %v dB); want stochasticity", diff)
	}
	// But they should be correlated (same trajectory, same deployment):
	// means within a few dB.
	ma, _ := meanStd(a)
	mb, _ := meanStd(b)
	if math.Abs(ma-mb) > 6 {
		t.Errorf("repeated run means differ by %v dB, too much", math.Abs(ma-mb))
	}
}

// measurementBits flattens a run into the exact bits of every field, so two
// runs compare equal only if they are bit-identical.
func measurementBits(ms []Measurement) []uint64 {
	var out []uint64
	f := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	for _, m := range ms {
		f(m.T, m.Loc.Lat, m.Loc.Lon, m.RSRP, m.RSRQ, m.SINR, m.CQI, m.RSSI)
		handover := uint64(0)
		if m.Handover {
			handover = 1
		}
		out = append(out, uint64(m.ServingCell), handover, uint64(len(m.Visible)))
		for _, v := range m.Visible {
			out = append(out, uint64(v.Cell.ID))
			f(v.Distance)
		}
		out = append(out, uint64(len(m.EnvCtx)))
		f(m.EnvCtx...)
		out = append(out, uint64(len(m.VisibleLoad)))
		f(m.VisibleLoad...)
	}
	return out
}

// TestRepeatedRunsMatchDriveTest pins the concurrent fan-out to the serial
// definition: run i of RepeatedRuns is DriveTest with seed base+i, bit for
// bit, whatever the number of runs.
func TestRepeatedRunsMatchDriveTest(t *testing.T) {
	w := testWorld(t)
	tr := cityRoute(90, 8)
	const base = 300
	for _, n := range []int{0, 1, 5} {
		runs := w.RepeatedRuns(tr, n, base)
		if len(runs) != n {
			t.Fatalf("n=%d: got %d runs", n, len(runs))
		}
		for i, run := range runs {
			want := w.DriveTest(tr, rand.New(rand.NewSource(base+int64(i))))
			if !slices.Equal(measurementBits(run), measurementBits(want)) {
				t.Errorf("n=%d: run %d differs from DriveTest(seed %d)", n, i, base+i)
			}
		}
	}
}

func TestDriveTestDeterministicForSeed(t *testing.T) {
	w := testWorld(t)
	tr := cityRoute(60, 6)
	a := w.DriveTest(tr, rand.New(rand.NewSource(42)))
	b := w.DriveTest(tr, rand.New(rand.NewSource(42)))
	for i := range a {
		if a[i].RSRP != b[i].RSRP || a[i].ServingCell != b[i].ServingCell {
			t.Fatalf("same seed diverged at sample %d", i)
		}
	}
}

func TestOutOfCoverageFloors(t *testing.T) {
	w := testWorld(t)
	far := geo.Offset(origin, 0, 200000)
	tr := geo.Trajectory{{Point: far, T: 0}, {Point: far, T: 1}}
	ms := w.DriveTest(tr, rand.New(rand.NewSource(1)))
	if ms[0].ServingCell != -1 {
		t.Fatalf("expected detached device, got serving cell %d", ms[0].ServingCell)
	}
	if ms[0].RSRP != radio.RSRPMin {
		t.Errorf("out-of-coverage RSRP = %v, want floor", ms[0].RSRP)
	}
}

func TestSeriesExtraction(t *testing.T) {
	ms := []Measurement{
		{RSRP: -80, RSRQ: -10, SINR: 5, CQI: 7, ServingCell: 3},
		{RSRP: -90, RSRQ: -12, SINR: 2, CQI: 5, ServingCell: 4},
	}
	if s := Series(ms, radio.KPIRSRP); s[0] != -80 || s[1] != -90 {
		t.Errorf("RSRP series = %v", s)
	}
	if s := Series(ms, radio.KPIServingCell); s[0] != 3 || s[1] != 4 {
		t.Errorf("serving series = %v", s)
	}
	if v := ms[0].KPI(99); v != 0 {
		t.Errorf("unknown KPI index should return 0, got %v", v)
	}
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

func TestAnnotateContextOnly(t *testing.T) {
	w := testWorld(t)
	tr := cityRoute(60, 9)
	ms := w.Annotate(tr, 0)
	if len(ms) != len(tr) {
		t.Fatalf("annotated %d of %d samples", len(ms), len(tr))
	}
	for i, m := range ms {
		if m.ServingCell != -1 {
			t.Fatalf("sample %d has a serving cell; annotation must be KPI-free", i)
		}
		if m.RSRP != 0 || m.RSRQ != 0 {
			t.Fatalf("sample %d carries KPI values", i)
		}
		if len(m.EnvCtx) == 0 {
			t.Fatalf("sample %d missing environment context", i)
		}
	}
	// Context must match what a drive test at the same points would see.
	real := w.DriveTest(tr, rand.New(rand.NewSource(5)))
	for i := range ms {
		if len(ms[i].Visible) != len(real[i].Visible) {
			t.Fatalf("sample %d visible-set size differs from drive test", i)
		}
	}
}
