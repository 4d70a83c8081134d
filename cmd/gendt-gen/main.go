// Command gendt-gen loads a trained GenDT model and generates radio-KPI
// time series for an unseen trajectory in the dataset's world, writing the
// result as JSON and printing fidelity metrics against the held-out ground
// truth (which a real operator would not have — the metrics are for
// reproduction validation).
//
// Usage:
//
//	gendt-gen -model model.json [-dataset NAME] [-scenario-file F.toml]
//	          [-scale F] [-seed N] [-run N] [-out series.json] [-samples N]
package main

import (
	"flag"
	"fmt"
	"os"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/export"
	"gendt/internal/metrics"
)

func main() {
	modelPath := flag.String("model", "gendt-model.json", "trained model path")
	world := dataset.AddWorldFlags(flag.CommandLine, 0.05, " (must match training)")
	runIdx := flag.Int("run", 0, "index into the test runs")
	route := flag.String("route", "", "CSV trajectory (t,lat,lon) to generate for instead of a test run — the pure virtual-drive-test workflow")
	out := flag.String("out", "", "optional JSON output path for the generated series")
	samples := flag.Int("samples", 1, "number of independent generation samples")
	flag.Parse()

	m, err := core.LoadFile(*modelPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	d, err := world.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gendt-gen:", err)
		os.Exit(2)
	}
	var run dataset.Run
	haveTruth := true
	if *route != "" {
		// Pure virtual drive test: a user-supplied trajectory annotated
		// with the operator-held context; no ground truth exists.
		f, err := os.Open(*route)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tr, err := export.ReadTrajectoryCSV(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		run = dataset.Run{Scenario: "custom", Traj: tr, Meas: d.World.Annotate(tr, m.Cfg.MaxCells)}
		haveTruth = false
	} else {
		tests := d.TestRuns()
		if *runIdx < 0 || *runIdx >= len(tests) {
			fmt.Fprintf(os.Stderr, "run index %d out of range (%d test runs)\n", *runIdx, len(tests))
			os.Exit(2)
		}
		run = tests[*runIdx]
	}
	seq := core.PrepareSequence(run, m.Cfg.Channels, m.Cfg.MaxCells)
	fmt.Printf("generating %d sample(s) for %s trajectory (%d steps) with %s\n",
		*samples, run.Scenario, seq.Len(), m.String())

	for s := 0; s < *samples; s++ {
		series := m.DenormalizeSeries(m.Generate(seq))
		for c, ch := range m.Cfg.Channels {
			if !haveTruth {
				fmt.Printf("sample %d %-12s mean=%8.2f min=%8.2f max=%8.2f\n",
					s, ch.Name, metrics.Mean(series[c]), minOf(series[c]), maxOf(series[c]))
				continue
			}
			real := make([]float64, seq.Len())
			for t := range real {
				real[t] = ch.Denormalize(seq.KPIs[t][c])
			}
			mae, _ := metrics.MAE(real, series[c])
			dtw, _ := metrics.DTW(real, series[c], 50)
			hwd, _ := metrics.HWD(real, series[c], 40)
			fmt.Printf("sample %d %-12s MAE=%6.2f DTW=%6.2f HWD=%6.2f\n", s, ch.Name, mae, dtw, hwd)
		}
		if *out != "" && s == 0 {
			var names []string
			for _, ch := range m.Cfg.Channels {
				names = append(names, ch.Name)
			}
			gs := export.GeneratedSeries{
				Channels: names,
				Interval: run.Traj.TimeGranularity(),
				Series:   series,
			}
			if err := export.WriteSeriesJSON(*out, gs); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println("wrote", *out)
		}
	}
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
