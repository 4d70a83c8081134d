package gendt

import (
	"math"
	"math/rand"
	"testing"
)

// TestFacadeQuickstart exercises the documented public-API flow end to end.
func TestFacadeQuickstart(t *testing.T) {
	data := NewDatasetA(DatasetSpec{Seed: 71, Scale: 0.015})
	chans := RSRPRSRQChannels()
	train := PrepareAll(data.TrainRuns(), chans, 6)
	model := NewModel(Config{
		Channels: chans,
		Hidden:   8, BatchLen: 10, StepLen: 5, MaxCells: 6, Epochs: 2, Seed: 1,
	})
	model.Train(train, nil)
	test := PrepareSequence(data.TestRuns()[0], chans, 6)
	norm := model.Generate(test)
	series := model.DenormalizeSeries(norm)
	if len(series) != 2 || len(series[0]) != test.Len() {
		t.Fatalf("series shape [%d][%d]", len(series), len(series[0]))
	}
	for _, v := range series[0] {
		if v < -140 || v > -44 {
			t.Fatalf("RSRP %v outside physical range", v)
		}
	}
	// Metrics over the facade.
	real := make([]float64, test.Len())
	for i := range real {
		real[i] = chans[0].Denormalize(test.KPIs[i][0])
	}
	if _, err := MAE(real, series[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := DTW(real, series[0], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := HWD(real, series[0], 30); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeBaselines exercises the baseline constructors through the
// Generator interface.
func TestFacadeBaselines(t *testing.T) {
	data := NewDatasetA(DatasetSpec{Seed: 72, Scale: 0.015})
	chans := RSRPRSRQChannels()
	train := PrepareAll(data.TrainRuns(), chans, 6)
	test := PrepareSequence(data.TestRuns()[0], chans, 6)
	gens := []Generator{
		NewFDaS(2, 1),
		NewMLP(2, 8, 1, 2e-3, 2),
		NewLSTMGNN(2, 8, 1, 3e-3, 3),
		NewDG(2, 8, 1, true, 4),
	}
	for _, g := range gens {
		g.Fit(train)
		out := g.Generate(test)
		if len(out) != test.Len() {
			t.Errorf("%s: length %d", g.Name(), len(out))
		}
	}
}

// TestFacadePartition checks the §6.2.2 subset helper via the facade.
func TestFacadePartition(t *testing.T) {
	data := NewDatasetA(DatasetSpec{Seed: 73, Scale: 0.015})
	parts := Partition(data.TrainRuns(), 3)
	if len(parts) != 3 {
		t.Fatalf("got %d parts", len(parts))
	}
}

// TestFacadeExperimentOptions checks preset plumbing.
func TestFacadeExperimentOptions(t *testing.T) {
	if DefaultExperimentOptions().Scale <= QuickExperimentOptions().Scale {
		t.Error("default scale should exceed quick scale")
	}
}

// TestFacadeVirtualDriveTest exercises the paper's operational workflow
// through the facade: sketch a route from waypoints, annotate it with
// operator-held context (no measurement), and generate KPIs with a
// trained model.
func TestFacadeVirtualDriveTest(t *testing.T) {
	data := NewDatasetA(DatasetSpec{Seed: 74, Scale: 0.015})
	chans := RSRPRSRQChannels()
	model := NewModel(Config{
		Channels: chans,
		Hidden:   8, BatchLen: 10, StepLen: 5, MaxCells: 6, Epochs: 1, Seed: 3,
	})
	model.Train(PrepareAll(data.TrainRuns(), chans, 6), nil)

	start := data.Runs[0].Traj.Centroid()
	wps := []Point{start}
	for _, brg := range []float64{45, 135} {
		wps = append(wps, offsetPoint(start, brg, 400))
	}
	tr := RouteThrough(wps, CityDriveProfile, 1, rand.New(rand.NewSource(9)))
	if len(tr) < 10 {
		t.Fatalf("route too short: %d", len(tr))
	}
	run := Run{Scenario: "custom", Traj: tr, Meas: data.World.Annotate(tr, 0)}
	seq := PrepareSequence(run, chans, 6)
	series := model.DenormalizeSeries(model.Generate(seq))
	if len(series[0]) != len(tr) {
		t.Fatalf("generated %d steps for %d-sample route", len(series[0]), len(tr))
	}
	for _, v := range series[0] {
		if v < -140 || v > -44 {
			t.Fatalf("generated RSRP %v outside physical range", v)
		}
	}
}

func offsetPoint(p Point, brg, dist float64) Point {
	// Small-offset approximation adequate for test routes.
	const mPerDegLat = 111320.0
	rad := brg * 3.14159265 / 180
	return Point{
		Lat: p.Lat + dist*math.Cos(rad)/mPerDegLat,
		Lon: p.Lon + dist*math.Sin(rad)/(mPerDegLat*math.Cos(p.Lat*3.14159265/180)),
	}
}
