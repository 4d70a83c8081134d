package experiments

import (
	"math"
	"strings"
	"testing"

	"gendt/internal/dataset"
)

// quick keeps experiment smoke tests fast.
var quick = QuickOptions()

func TestTable1Shape(t *testing.T) {
	rows := Table1(quick)
	if len(rows) != 3 {
		t.Fatalf("Table 1 has %d rows, want 3", len(rows))
	}
	// Paper Table 1 shape: 1 s granularity, walk slowest, tram fastest.
	var walk, tram dataset.Stats
	for _, r := range rows {
		switch r.Scenario {
		case dataset.ScenarioWalk:
			walk = r
		case dataset.ScenarioTram:
			tram = r
		}
		if math.Abs(r.TimeGranularity-1) > 1e-9 {
			t.Errorf("%s granularity %v, want 1 s", r.Scenario, r.TimeGranularity)
		}
		if r.Samples == 0 {
			t.Errorf("%s has no samples", r.Scenario)
		}
	}
	if walk.AvgVelocity >= tram.AvgVelocity {
		t.Errorf("walk %v m/s not slower than tram %v m/s", walk.AvgVelocity, tram.AvgVelocity)
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(quick)
	if len(rows) != 4 {
		t.Fatalf("Table 2 has %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.ROCRSRP <= 0 {
			t.Errorf("%s ROC RSRP = %v, want positive", r.Scenario, r.ROCRSRP)
		}
		if strings.HasPrefix(r.Scenario, "Highway") && r.AvgVelocity < 18 {
			t.Errorf("%s velocity %v too low for a highway", r.Scenario, r.AvgVelocity)
		}
	}
}

func TestFigures1And2Stochasticity(t *testing.T) {
	rr := Figures1And2(quick, 3)
	if len(rr.RSRP) != 3 {
		t.Fatalf("got %d runs", len(rr.RSRP))
	}
	if rr.SpreadDB <= 0 {
		t.Error("no run-to-run RSRP spread; stochasticity missing")
	}
	// Figure 2's observation: where RSRP spread is high, serving cells
	// also differ between runs at least sometimes.
	if rr.ChurnCorrelation < 0 || rr.ChurnCorrelation > 1 {
		t.Errorf("churn correlation %v out of [0,1]", rr.ChurnCorrelation)
	}
}

func TestFigure4DensityOrdering(t *testing.T) {
	cases := Figure4(quick)
	if len(cases) != 7 {
		t.Fatalf("Figure 4 has %d cases, want 7", len(cases))
	}
	byCase := map[string]float64{}
	for _, c := range cases {
		if c.PerKm2 < 0 {
			t.Errorf("%s negative density", c.Case)
		}
		byCase[c.Case] = c.PerKm2
	}
	// Paper's Figure 4 shape: inner-city cases denser than highways.
	cityMin := math.Min(byCase["Case 1 (Walk)"], byCase["Case 4 (City 1)"])
	hwMax := math.Max(byCase["Case 6 (Highway 1)"], byCase["Case 7 (Highway 2)"])
	if cityMin <= hwMax {
		t.Errorf("city density %v not above highway density %v", cityMin, hwMax)
	}
}

func TestFigure16CDFs(t *testing.T) {
	d := quick.DatasetB()
	cdfs := Figure16(d)
	if len(cdfs) != 4 {
		t.Fatalf("got %d CDFs, want 4", len(cdfs))
	}
	medians := map[string]float64{}
	for _, c := range cdfs {
		if len(c.Values) == 0 {
			t.Fatalf("%s empty CDF", c.Scenario)
		}
		last := c.Probs[len(c.Probs)-1]
		if math.Abs(last-1) > 1e-9 {
			t.Errorf("%s CDF ends at %v", c.Scenario, last)
		}
		medians[c.Scenario] = c.Median
	}
	// Paper Figure 16(b): highway serving cells are farther than city ones.
	if medians[dataset.ScenarioHighway1] <= medians[dataset.ScenarioCity1] {
		t.Errorf("highway median %v not beyond city median %v",
			medians[dataset.ScenarioHighway1], medians[dataset.ScenarioCity1])
	}
}

func TestRenderHelpers(t *testing.T) {
	if s := RenderStats("t", Table1(quick)); !strings.Contains(s, "Walk") {
		t.Error("RenderStats missing scenario")
	}
	if s := RenderDensity(Figure4(quick)); !strings.Contains(s, "Case 1") {
		t.Error("RenderDensity missing case")
	}
	d := quick.DatasetA()
	if s := RenderCDFs("f16", Figure16(d)); !strings.Contains(s, "median") {
		t.Error("RenderCDFs missing median")
	}
	if s := ASCIISeries("x", []float64{1, 2, 3}, 10); !strings.Contains(s, "x") {
		t.Error("ASCIISeries missing name")
	}
	if s := ASCIISeries("empty", nil, 10); !strings.Contains(s, "empty") {
		t.Error("ASCIISeries empty case")
	}
}

func TestBoundaryJumpExcess(t *testing.T) {
	gendt := []float64{0, 0, 0, 0, 0, 0}
	short := []float64{0, 0, 5, 5, 10, 10} // jumps of 5 at t=2 and t=4
	got := BoundaryJumpExcess(gendt, short, 2)
	if got != 5 {
		t.Errorf("BoundaryJumpExcess = %v, want 5", got)
	}
	if BoundaryJumpExcess(gendt, short[:4], 2) != 0 {
		t.Error("length mismatch should return 0")
	}
}

func TestFidelityHelpers(t *testing.T) {
	rows := []FidelityRow{
		{Method: "A", Scenario: "s1", Channel: "RSRP", MAE: 1, DTW: 2, HWD: 3},
		{Method: "A", Scenario: "s2", Channel: "RSRP", MAE: 3, DTW: 4, HWD: 5},
		{Method: "B", Scenario: "s1", Channel: "RSRP", MAE: 10, DTW: 10, HWD: 10},
		{Method: "B", Scenario: "s1", Channel: "RSRQ", MAE: 1, DTW: 1, HWD: 1},
	}
	avg := AverageAcrossScenarios(rows)
	var aRSRP *FidelityRow
	for i := range avg {
		if avg[i].Method == "A" && avg[i].Channel == "RSRP" {
			aRSRP = &avg[i]
		}
	}
	if aRSRP == nil || aRSRP.MAE != 2 {
		t.Fatalf("average MAE = %+v, want 2", aRSRP)
	}
	filtered := FilterChannel(rows, "RSRQ")
	if len(filtered) != 1 || filtered[0].Method != "B" {
		t.Fatalf("FilterChannel = %+v", filtered)
	}
	if best := BestMethodBy(rows, func(r FidelityRow) float64 { return r.MAE }); best != "A" {
		t.Errorf("BestMethodBy = %s, want A", best)
	}
	if s := RenderFidelity("t", rows); !strings.Contains(s, "MAE") {
		t.Error("RenderFidelity output")
	}
}

// Smoke tests for the heavier harnesses at quick scale: they must run and
// produce structurally valid output (shape assertions against the paper's
// orderings live in the bench harness where models are trained at full
// experiment scale).

func TestTable3Smoke(t *testing.T) {
	rows := Table3(quick)
	if len(rows) != 6*3 { // 6 methods x 3 scenarios
		t.Fatalf("Table 3 has %d rows, want 18", len(rows))
	}
	for _, r := range rows {
		if r.Channel != "RSRP" {
			t.Errorf("unexpected channel %s", r.Channel)
		}
		if math.IsNaN(r.MAE) || math.IsNaN(r.DTW) || math.IsNaN(r.HWD) {
			t.Errorf("NaN metric in %+v", r)
		}
	}
}

func TestTable8Smoke(t *testing.T) {
	rows := Table8(quick)
	if len(rows) != 3 {
		t.Fatalf("Table 8 has %d rows", len(rows))
	}
	if rows[0].Method != "GenDT" {
		t.Errorf("first row %s", rows[0].Method)
	}
	if s := RenderTable8(rows); !strings.Contains(s, "GenDT") {
		t.Error("render output")
	}
}

func TestFigure9Smoke(t *testing.T) {
	env := Figure9(quick, 3)
	if len(env.Real) == 0 || len(env.Min) != len(env.Real) {
		t.Fatal("envelope shape")
	}
	for i := range env.Min {
		if env.Min[i] > env.Max[i] {
			t.Fatalf("min %v > max %v at %d", env.Min[i], env.Max[i], i)
		}
		if env.Mean[i] < env.Min[i]-1e-9 || env.Mean[i] > env.Max[i]+1e-9 {
			t.Fatalf("mean outside envelope at %d", i)
		}
	}
	if env.Coverage < 0 || env.Coverage > 1 {
		t.Fatalf("coverage %v", env.Coverage)
	}
}

func TestFigure10Smoke(t *testing.T) {
	f := Figure10(quick)
	if len(f.Real) != len(f.GenDT) || len(f.Real) != len(f.Short) {
		t.Fatal("series length mismatch")
	}
	if f.ShortLen < 2 {
		t.Errorf("short length %d", f.ShortLen)
	}
}

func TestFigure11Smoke(t *testing.T) {
	c := Figure11(quick, 3, 1)
	if len(c.Uncertainty) != 2 || len(c.Random) != 2 {
		t.Fatalf("curves %d/%d steps", len(c.Uncertainty), len(c.Random))
	}
	if s := RenderFigure11(c); !strings.Contains(s, "%") {
		t.Error("render output")
	}
}

func TestTable9Smoke(t *testing.T) {
	rows := Table9(quick)
	if len(rows) != 8 { // Real, Excluded, 6 methods
		t.Fatalf("Table 9 has %d rows, want 8", len(rows))
	}
	if rows[0].Source != "Real" || rows[1].Source != "RSRP & RSRQ Excluded" {
		t.Errorf("row order: %s, %s", rows[0].Source, rows[1].Source)
	}
	// The paper's core ablation: excluding RSRP/RSRQ must hurt throughput
	// prediction relative to using real measurements.
	if rows[1].Throughput.MAE <= rows[0].Throughput.MAE {
		t.Errorf("excluding KPIs did not degrade prediction: excl=%v real=%v",
			rows[1].Throughput.MAE, rows[0].Throughput.MAE)
	}
	if s := RenderTable9(rows); !strings.Contains(s, "Real") {
		t.Error("render output")
	}
}

func TestTable10Smoke(t *testing.T) {
	res := Table10(quick)
	if len(res.Rows) != 6 {
		t.Fatalf("Table 10 has %d rows, want 6", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.HWD < 0 || math.IsNaN(r.HWD) {
			t.Errorf("%s HWD = %v", r.Method, r.HWD)
		}
	}
	if len(res.RealCDF.Values) == 0 {
		t.Error("empty real inter-handover CDF")
	}
	if s := RenderTable10(res); !strings.Contains(s, "HWD") {
		t.Error("render output")
	}
}

func TestTable12Smoke(t *testing.T) {
	rows := Table12(quick)
	if len(rows) != 5 {
		t.Fatalf("Table 12 has %d rows, want 5", len(rows))
	}
	if rows[0].Variant != "GenDT" {
		t.Errorf("first variant %s", rows[0].Variant)
	}
	if s := RenderTable12(rows); !strings.Contains(s, "No SRNN") {
		t.Error("render output")
	}
}

func TestFigure18Smoke(t *testing.T) {
	s := Figure18(quick)
	if len(s.Real) == 0 || len(s.Real) != len(s.GenDT) || len(s.Real) != len(s.RealDG) {
		t.Fatal("series lengths")
	}
}

func TestExtMDTComparisonSmoke(t *testing.T) {
	rows := ExtMDTComparison(quick)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Source != "Drive test" {
		t.Errorf("first source %s", rows[0].Source)
	}
	for _, r := range rows {
		if r.Samples == 0 {
			t.Errorf("%s collected no samples", r.Source)
		}
		if math.IsNaN(r.MAE) {
			t.Errorf("%s NaN MAE", r.Source)
		}
	}
	if s := RenderMDT(rows); !strings.Contains(s, "MDT") {
		t.Error("render output")
	}
}

func TestExtClosedLoopSmoke(t *testing.T) {
	rows := ExtClosedLoop(quick)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.RSRQ.MAE) || math.IsNaN(r.SINR.MAE) {
			t.Errorf("%s NaN metrics", r.Variant)
		}
	}
	if s := RenderClosedLoop(rows); !strings.Contains(s, "Closed loop") {
		t.Error("render output")
	}
}
