// Command gendt-experiments regenerates the paper's tables and figures
// against the simulated drive-test substrate.
//
// Usage:
//
//	gendt-experiments [-scale quick|default] [-seed N] [-workers N]
//	                  [-dataset NAME] [-scenario-file F.toml]
//	                  [-cpuprofile F] [-memprofile F] [experiment ...]
//
// Experiments: table1 table2 fig1 fig4 fig16 table3 table4 table5 table6
// table7 table8 fig9 fig10 fig11 table9 table10 table12 fig18, or "all".
// The "scenario" experiment prints Table 1/2-style statistics for the
// scenario named by -dataset (or loaded via -scenario-file); passing
// -scenario-file with no experiment list runs exactly that.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"gendt/internal/dataset"
	"gendt/internal/experiments"
	"gendt/internal/plot"
)

func main() {
	scale := flag.String("scale", "default", "experiment scale: quick or default")
	seed := flag.Int64("seed", 1, "master random seed")
	world := dataset.AddNameFlags(flag.CommandLine, " (the world of the \"scenario\" experiment)")
	svgDir := flag.String("svg", "", "directory to also write figure SVGs (optional)")
	epochs := flag.Int("epochs", 0, "override GenDT training epochs (0 = scale preset)")
	workers := flag.Int("workers", -1, "data-parallel workers (-1 = scale preset, 0 = NumCPU, 1 = serial)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memProfile)

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var opt experiments.Options
	switch *scale {
	case "quick":
		opt = experiments.QuickOptions()
	case "default":
		opt = experiments.DefaultOptions()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	opt.Seed = *seed
	if *epochs > 0 {
		opt.Epochs = *epochs
	}
	if *workers >= 0 {
		opt.Workers = *workers
	}

	scenName, err := world.Name()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gendt-experiments:", err)
		os.Exit(2)
	}

	ids := flag.Args()
	if len(ids) == 0 && world.ScenarioFile != "" {
		ids = []string{"scenario"}
	}
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		// table3/table5 print tables 4/6 too (shared training), so the
		// default list names each computation once.
		ids = []string{"table1", "table2", "fig1", "fig4", "fig16",
			"table3", "table5", "table7", "table8",
			"fig9", "fig10", "fig11", "table9", "table10", "table12", "fig18",
			"ext-mdt", "ext-closedloop"}
	}
	for _, id := range ids {
		start := time.Now()
		out, err := run(id, opt, *svgDir, scenName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("(%s completed in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// writeMemProfile records a post-GC heap profile (no-op when path is "").
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// writeSVG writes a figure SVG when an output directory was requested.
func writeSVG(dir, name, svg string) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, name)
	if err := plot.WriteSVG(path, svg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	fmt.Println("wrote", path)
}

func run(id string, opt experiments.Options, svgDir, scenName string) (string, error) {
	switch strings.ToLower(id) {
	case "scenario":
		stats, err := experiments.ScenarioTable(opt, scenName)
		if err != nil {
			return "", err
		}
		return experiments.RenderStats(fmt.Sprintf("Scenario %s statistics", scenName), stats), nil
	case "table1":
		return experiments.RenderStats("Table 1: Dataset A statistics", experiments.Table1(opt)), nil
	case "table2":
		return experiments.RenderStats("Table 2: Dataset B statistics", experiments.Table2(opt)), nil
	case "fig1", "fig2":
		rr := experiments.Figures1And2(opt, 5)
		var b strings.Builder
		b.WriteString("== Figures 1-2: repeated runs over the same trajectory ==\n")
		var series []plot.Series
		for i, s := range rr.RSRP {
			b.WriteString(experiments.ASCIISeries(fmt.Sprintf("run %d", i), s, 60))
			series = append(series, plot.Series{Name: fmt.Sprintf("run %d", i), Y: s})
		}
		fmt.Fprintf(&b, "mean RSRP spread across runs: %.1f dB\n", rr.SpreadDB)
		fmt.Fprintf(&b, "serving-cell churn at high-spread locations: %.0f%%\n", rr.ChurnCorrelation*100)
		writeSVG(svgDir, "fig1_rsrp_repeats.svg", plot.Chart{
			Title:  "Figure 1: RSRP over the same trajectory (5 runs)",
			XLabel: "sample", YLabel: "RSRP (dBm)", Series: series,
		}.SVG())
		return b.String(), nil
	case "fig4":
		cases := experiments.Figure4(opt)
		var bars []plot.Bar
		for _, c := range cases {
			bars = append(bars, plot.Bar{Label: c.Case, Value: c.PerKm2})
		}
		writeSVG(svgDir, "fig4_cell_density.svg", plot.BarChart{
			Title: "Figure 4: cell density per case", YLabel: "cells/km2", Bars: bars,
		}.SVG())
		return experiments.RenderDensity(cases), nil
	case "fig16":
		a := opt.DatasetA()
		bd := opt.DatasetB()
		cdfsA, cdfsB := experiments.Figure16(a), experiments.Figure16(bd)
		for _, pair := range []struct {
			name string
			cdfs []experiments.ServingDistanceCDF
		}{{"fig16a_dataset_a.svg", cdfsA}, {"fig16b_dataset_b.svg", cdfsB}} {
			var series []plot.Series
			for _, c := range pair.cdfs {
				series = append(series, plot.Series{Name: c.Scenario, X: c.Values, Y: c.Probs})
			}
			writeSVG(svgDir, pair.name, plot.Chart{
				Title:  "Figure 16: CDF of distance to serving cell",
				XLabel: "distance (m)", YLabel: "CDF", Step: true, Series: series,
			}.SVG())
		}
		return experiments.RenderCDFs("Figure 16a: distance to serving cell (Dataset A)", cdfsA) +
			experiments.RenderCDFs("Figure 16b: distance to serving cell (Dataset B)", cdfsB), nil
	case "table3", "table4":
		t3, t4 := experiments.Tables3And4(opt)
		return experiments.RenderFidelity("Table 3: RSRP fidelity per scenario (Dataset A)", t3) +
			experiments.RenderFidelity("Table 4: all-KPI average (Dataset A)", t4), nil
	case "table5", "table6":
		t5, t6 := experiments.Tables5And6(opt)
		return experiments.RenderFidelity("Table 5: RSRP fidelity per scenario (Dataset B)", t5) +
			experiments.RenderFidelity("Table 6: RSRP+RSRQ average (Dataset B)", t6), nil
	case "table7":
		return experiments.RenderFidelity("Table 7: long/complex trajectory (Dataset B)", experiments.Table7(opt)), nil
	case "table8":
		return experiments.RenderTable8(experiments.Table8(opt)), nil
	case "fig9":
		env := experiments.Figure9(opt, 8)
		var b strings.Builder
		b.WriteString("== Figure 9: long-trajectory envelope ==\n")
		b.WriteString(experiments.ASCIISeries("real", env.Real, 60))
		b.WriteString(experiments.ASCIISeries("min", env.Min, 60))
		b.WriteString(experiments.ASCIISeries("max", env.Max, 60))
		fmt.Fprintf(&b, "envelope coverage of real series: %.0f%%, pooled HWD %.2f\n",
			env.Coverage*100, env.HWD)
		writeSVG(svgDir, "fig9_long_envelope.svg", plot.Chart{
			Title:  "Figure 9: GenDT envelope over the long trajectory",
			XLabel: "sample", YLabel: "RSRP (dBm)",
			Series: []plot.Series{
				{Name: "real", Y: env.Real},
				{Name: "min", Y: env.Min, Dashed: true},
				{Name: "max", Y: env.Max, Dashed: true},
				{Name: "mean", Y: env.Mean},
			},
		}.SVG())
		return b.String(), nil
	case "fig10":
		f := experiments.Figure10(opt)
		var b strings.Builder
		b.WriteString("== Figure 10: GenDT vs stitched short generations ==\n")
		b.WriteString(experiments.ASCIISeries("real", f.Real, 60))
		b.WriteString(experiments.ASCIISeries("GenDT", f.GenDT, 60))
		b.WriteString(experiments.ASCIISeries(fmt.Sprintf("%ds", f.ShortLen), f.Short, 60))
		fmt.Fprintf(&b, "stitching boundary-jump excess: %.2f dB\n", f.BoundaryJumpExcess)
		writeSVG(svgDir, "fig10_stitching.svg", plot.Chart{
			Title:  "Figure 10: GenDT vs stitched short generations",
			XLabel: "sample", YLabel: "RSRP (dBm)",
			Series: []plot.Series{
				{Name: "real", Y: f.Real},
				{Name: "GenDT", Y: f.GenDT},
				{Name: fmt.Sprintf("%ds stitched", f.ShortLen), Y: f.Short, Dashed: true},
			},
		}.SVG())
		return b.String(), nil
	case "fig11":
		curves := experiments.Figure11(opt, 10, 5)
		var fu, fr, du, dr []float64
		for _, s := range curves.Uncertainty {
			fu = append(fu, s.FracUsed*100)
			du = append(du, s.DTW)
		}
		for _, s := range curves.Random {
			fr = append(fr, s.FracUsed*100)
			dr = append(dr, s.DTW)
		}
		writeSVG(svgDir, "fig11_measurement_efficiency.svg", plot.Chart{
			Title:  "Figure 11: uncertainty vs random data selection (DTW)",
			XLabel: "% of data used", YLabel: "DTW",
			Series: []plot.Series{
				{Name: "uncertainty", X: fu, Y: du},
				{Name: "random", X: fr, Y: dr, Dashed: true},
			},
		}.SVG())
		return experiments.RenderFigure11(curves), nil
	case "table9", "fig12":
		return experiments.RenderTable9(experiments.Table9(opt)), nil
	case "table10", "fig13":
		res := experiments.Table10(opt)
		if len(res.RealCDF.Values) > 0 && len(res.GenCDF.Values) > 0 {
			writeSVG(svgDir, "fig13_inter_handover_cdf.svg", plot.Chart{
				Title:  "Figure 13: inter-handover time CDF",
				XLabel: "inter-handover time (s)", YLabel: "CDF", Step: true,
				Series: []plot.Series{
					{Name: "real", X: res.RealCDF.Values, Y: res.RealCDF.Probs},
					{Name: "GenDT", X: res.GenCDF.Values, Y: res.GenCDF.Probs, Dashed: true},
				},
			}.SVG())
		}
		return experiments.RenderTable10(res), nil
	case "table12":
		return experiments.RenderTable12(experiments.Table12(opt)), nil
	case "fig18":
		s := experiments.Figure18(opt)
		var b strings.Builder
		b.WriteString("== Figure 18: sample generated RSRP series (Walk) ==\n")
		b.WriteString(experiments.ASCIISeries("real", s.Real, 60))
		b.WriteString(experiments.ASCIISeries("GenDT", s.GenDT, 60))
		b.WriteString(experiments.ASCIISeries("RC-DG", s.RealDG, 60))
		writeSVG(svgDir, "fig18_sample_series.svg", plot.Chart{
			Title:  "Figure 18: generated RSRP series (Walk)",
			XLabel: "sample", YLabel: "RSRP (dBm)",
			Series: []plot.Series{
				{Name: "real", Y: s.Real},
				{Name: "GenDT", Y: s.GenDT},
				{Name: "Real-Context DG", Y: s.RealDG, Dashed: true},
			},
		}.SVG())
		return b.String(), nil
	case "ext-mdt":
		return experiments.RenderMDT(experiments.ExtMDTComparison(opt)), nil
	case "ext-closedloop":
		return experiments.RenderClosedLoop(experiments.ExtClosedLoop(opt)), nil
	default:
		return "", fmt.Errorf("unknown experiment %q", id)
	}
}
