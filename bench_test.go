package gendt

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each iteration regenerates the experiment end to end
// (dataset synthesis, model training, generation, metrics) at the quick
// scale, reporting wall-clock per full reproduction; run with
//
//	go test -bench=. -benchmem
//
// For paper-scale numbers use `gendt-experiments -scale default`. The
// benchmarks print the headline rows once so the output doubles as a
// compact reproduction record.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"gendt/internal/experiments"
)

// benchOpt returns the benchmark experiment scale with a fixed seed.
func benchOpt() experiments.Options {
	return experiments.QuickOptions()
}

// printOnce ensures each benchmark prints its headline rows a single time
// regardless of the iteration count chosen by the harness.
var printOnce sync.Map

func headline(b *testing.B, key, text string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Logf("%s", text)
	}
}

func BenchmarkTable1DatasetAStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(benchOpt())
		if len(rows) != 3 {
			b.Fatalf("got %d rows", len(rows))
		}
		headline(b, "t1", experiments.RenderStats("Table 1", rows))
	}
}

func BenchmarkTable2DatasetBStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(benchOpt())
		if len(rows) != 4 {
			b.Fatalf("got %d rows", len(rows))
		}
		headline(b, "t2", experiments.RenderStats("Table 2", rows))
	}
}

func BenchmarkFig1RSRPStochasticity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rr := experiments.Figures1And2(benchOpt(), 5)
		if rr.SpreadDB <= 0 {
			b.Fatal("no stochasticity")
		}
		headline(b, "f1", fmt.Sprintf("Figures 1-2: spread %.1f dB, churn correlation %.2f",
			rr.SpreadDB, rr.ChurnCorrelation))
	}
}

func BenchmarkFig2ServingCellChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rr := experiments.Figures1And2(benchOpt(), 3)
		if len(rr.ServingIDs) != 3 {
			b.Fatal("missing serving series")
		}
	}
}

func BenchmarkFig4CellDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cases := experiments.Figure4(benchOpt())
		if len(cases) != 7 {
			b.Fatalf("got %d cases", len(cases))
		}
		headline(b, "f4", experiments.RenderDensity(cases))
	}
}

func BenchmarkFig16ServingCellDistanceCDF(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		d := opt.DatasetB()
		cdfs := experiments.Figure16(d)
		if len(cdfs) != 4 {
			b.Fatalf("got %d cdfs", len(cdfs))
		}
		headline(b, "f16", experiments.RenderCDFs("Figure 16", cdfs))
	}
}

func BenchmarkTable3DatasetARSRP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(benchOpt())
		if len(rows) != 18 {
			b.Fatalf("got %d rows", len(rows))
		}
		headline(b, "t3", experiments.RenderFidelity("Table 3 (quick scale)", rows))
	}
}

func BenchmarkTable4DatasetAAllKPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4(benchOpt())
		if len(rows) != 24 {
			b.Fatalf("got %d rows", len(rows))
		}
		headline(b, "t4", experiments.RenderFidelity("Table 4 (quick scale)", rows))
	}
}

func BenchmarkTable5DatasetBRSRP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table5(benchOpt())
		if len(rows) != 24 { // 6 methods x 4 scenarios
			b.Fatalf("got %d rows", len(rows))
		}
		headline(b, "t5", experiments.RenderFidelity("Table 5 (quick scale)", rows))
	}
}

func BenchmarkTable6DatasetBAvg(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table6(benchOpt())
		if len(rows) != 12 { // 6 methods x 2 channels
			b.Fatalf("got %d rows", len(rows))
		}
		headline(b, "t6", experiments.RenderFidelity("Table 6 (quick scale)", rows))
	}
}

func BenchmarkTable7LongTrajectory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table7(benchOpt())
		if len(rows) != 12 {
			b.Fatalf("got %d rows", len(rows))
		}
		headline(b, "t7", experiments.RenderFidelity("Table 7 (quick scale)", rows))
	}
}

func BenchmarkTable8ShortStitching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table8(benchOpt())
		if len(rows) != 3 {
			b.Fatalf("got %d rows", len(rows))
		}
		headline(b, "t8", experiments.RenderTable8(rows))
	}
}

func BenchmarkFig9LongTrajectoryEnvelope(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.Figure9(benchOpt(), 4)
		if len(env.Real) == 0 {
			b.Fatal("empty envelope")
		}
		headline(b, "f9", fmt.Sprintf("Figure 9: coverage %.0f%%, pooled HWD %.2f",
			env.Coverage*100, env.HWD))
	}
}

func BenchmarkFig10StitchingArtifacts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure10(benchOpt())
		if len(f.Real) == 0 {
			b.Fatal("empty series")
		}
		headline(b, "f10", fmt.Sprintf("Figure 10: boundary-jump excess %.2f dB (stitch len %d)",
			f.BoundaryJumpExcess, f.ShortLen))
	}
}

func BenchmarkFig11MeasurementEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.Figure11(benchOpt(), 5, 2)
		if len(c.Uncertainty) == 0 || len(c.Random) == 0 {
			b.Fatal("empty curves")
		}
		headline(b, "f11", experiments.RenderFigure11(c))
	}
}

func BenchmarkTable9QoEPrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table9(benchOpt())
		if len(rows) != 8 {
			b.Fatalf("got %d rows", len(rows))
		}
		headline(b, "t9", experiments.RenderTable9(rows))
	}
}

func BenchmarkTable10Handover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table10(benchOpt())
		if len(res.Rows) != 6 {
			b.Fatalf("got %d rows", len(res.Rows))
		}
		headline(b, "t10", experiments.RenderTable10(res))
	}
}

func BenchmarkTable12Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table12(benchOpt())
		if len(rows) != 5 {
			b.Fatalf("got %d rows", len(rows))
		}
		headline(b, "t12", experiments.RenderTable12(rows))
	}
}

func BenchmarkFig18SampleSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.Figure18(benchOpt())
		if len(s.Real) == 0 {
			b.Fatal("empty series")
		}
		headline(b, "f18", fmt.Sprintf("Figure 18: %d-step walk series generated (GenDT + Real-Context DG)", len(s.Real)))
	}
}

// Component micro-benchmarks: the hot paths a user of the library pays for.

// benchModelSetup prepares the quick-scale training set, a test sequence
// and the config that BenchmarkModelUncertainty and TestGenerateAllocs
// share.
func benchModelSetup(workers int) ([]*Sequence, *Sequence, Config) {
	opt := benchOpt()
	d := opt.DatasetA()
	chans := RSRPRSRQChannels()
	train := PrepareAll(d.TrainRuns(), chans, opt.MaxCells)
	cfg := Config{
		Channels: chans, Hidden: opt.Hidden,
		BatchLen: opt.BatchLen, StepLen: opt.StepLen,
		MaxCells: opt.MaxCells, Epochs: 1, Seed: 1,
		Workers: workers,
	}
	test := PrepareSequence(d.TestRuns()[0], chans, opt.MaxCells)
	return train, test, cfg
}

// BenchmarkModelUncertainty measures the k-pass MC-dropout uncertainty,
// serial vs fanned out across the worker pool.
func BenchmarkModelUncertainty(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			train, test, cfg := benchModelSetup(workers)
			m := NewModel(cfg)
			m.Train(train, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if u := m.ModelUncertainty(test, 4); u < 0 {
					b.Fatal("bad uncertainty")
				}
			}
		})
	}
}

func BenchmarkDriveTestSimulation(b *testing.B) {
	d := benchOpt().DatasetA()
	tr := d.Runs[0].Traj
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs := d.World.RepeatedRuns(tr, 1, int64(i))
		if len(runs[0]) != len(tr) {
			b.Fatal("bad simulation")
		}
	}
}

func BenchmarkDTWMetric(b *testing.B) {
	x := make([]float64, 1000)
	y := make([]float64, 1000)
	for i := range x {
		x[i] = float64(i % 37)
		y[i] = float64((i + 3) % 37)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DTW(x, y, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtMDTComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.ExtMDTComparison(benchOpt())
		if len(rows) != 3 {
			b.Fatalf("got %d rows", len(rows))
		}
		headline(b, "extmdt", experiments.RenderMDT(rows))
	}
}

func BenchmarkExtClosedLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.ExtClosedLoop(benchOpt())
		if len(rows) != 2 {
			b.Fatalf("got %d rows", len(rows))
		}
		headline(b, "extcl", experiments.RenderClosedLoop(rows))
	}
}
