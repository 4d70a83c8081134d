package experiments

import (
	"fmt"
	"strings"

	"gendt/internal/dataset"
	"gendt/internal/metrics"
	"gendt/internal/radio"
	"gendt/internal/sim"
)

// RepeatedRunSeries holds the Figures 1-2 artifact: several measurement
// runs over the same trajectory, location-aligned (same sample index =
// same location), with per-run RSRP and serving-cell-id series.
type RepeatedRunSeries struct {
	RSRP       [][]float64 // [run][t]
	ServingIDs [][]float64 // [run][t]
	// SpreadDB is the mean across locations of the max-min RSRP spread
	// between runs — the stochasticity the paper's Figure 1 demonstrates.
	SpreadDB float64
	// ChurnCorrelation is the fraction of high-spread locations at which
	// runs also disagree on the serving cell (Figure 2's observation).
	ChurnCorrelation float64
}

// Figures1And2 reproduces the §3 stochasticity analysis: five runs over
// the same tram trajectory in Dataset A.
func Figures1And2(opt Options, nRuns int) RepeatedRunSeries {
	d := opt.DatasetA()
	tram := d.ScenarioRuns(dataset.ScenarioTram)[0]
	runs := d.World.RepeatedRuns(tram.Traj, nRuns, opt.Seed*77)
	out := RepeatedRunSeries{}
	for _, r := range runs {
		out.RSRP = append(out.RSRP, sim.Series(r, radio.KPIRSRP))
		out.ServingIDs = append(out.ServingIDs, sim.Series(r, radio.KPIServingCell))
	}
	T := len(out.RSRP[0])
	var spreadSum float64
	highSpread, churnAtHigh := 0, 0
	for t := 0; t < T; t++ {
		lo, hi := out.RSRP[0][t], out.RSRP[0][t]
		ids := map[float64]bool{}
		for r := range runs {
			v := out.RSRP[r][t]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			ids[out.ServingIDs[r][t]] = true
		}
		spread := hi - lo
		spreadSum += spread
		if spread > 6 {
			highSpread++
			if len(ids) > 1 {
				churnAtHigh++
			}
		}
	}
	out.SpreadDB = spreadSum / float64(T)
	if highSpread > 0 {
		out.ChurnCorrelation = float64(churnAtHigh) / float64(highSpread)
	}
	return out
}

// DensityCase is one bar of Figure 4: cell density along one scenario's
// trajectories.
type DensityCase struct {
	Case    string
	PerKm2  float64
	Dataset string
}

// Figure4 reproduces the cell-density-per-case analysis over the paper's
// seven cases (Dataset A: walk, bus, tram; Dataset B: two city centres and
// two highways).
func Figure4(opt Options) []DensityCase {
	a := opt.DatasetA()
	b := opt.DatasetB()
	var out []DensityCase
	add := func(d *dataset.Dataset, name, label string) {
		runs := d.ScenarioRuns(name)
		if len(runs) == 0 {
			return
		}
		dens := 0.0
		for _, r := range runs {
			dens += d.World.Deployment.DensityPerKm2(r.Traj, 2000)
		}
		out = append(out, DensityCase{Case: label, PerKm2: dens / float64(len(runs)), Dataset: d.Name})
	}
	add(a, dataset.ScenarioWalk, "Case 1 (Walk)")
	add(a, dataset.ScenarioBus, "Case 2 (Bus)")
	add(a, dataset.ScenarioTram, "Case 3 (Tram)")
	add(b, dataset.ScenarioCity1, "Case 4 (City 1)")
	add(b, dataset.ScenarioCity2, "Case 5 (City 2)")
	add(b, dataset.ScenarioHighway1, "Case 6 (Highway 1)")
	add(b, dataset.ScenarioHighway2, "Case 7 (Highway 2)")
	return out
}

// ServingDistanceCDF is one curve of Figure 16: the CDF of the distance to
// the primary serving cell for one scenario.
type ServingDistanceCDF struct {
	Scenario string
	Values   []float64 // sorted distances, metres
	Probs    []float64
	Median   float64
}

// Figure16 reproduces the distance-to-serving-cell CDFs for every scenario
// of a dataset.
func Figure16(d *dataset.Dataset) []ServingDistanceCDF {
	var out []ServingDistanceCDF
	for _, scen := range d.Scenarios() {
		var dists []float64
		for _, r := range d.ScenarioRuns(scen) {
			for _, m := range r.Meas {
				for _, v := range m.Visible {
					if v.Cell.ID == m.ServingCell {
						dists = append(dists, v.Distance)
						break
					}
				}
			}
		}
		if len(dists) == 0 {
			continue
		}
		vals, probs := metrics.CDF(dists)
		out = append(out, ServingDistanceCDF{
			Scenario: scen, Values: vals, Probs: probs,
			Median: vals[len(vals)/2],
		})
	}
	return out
}

// Figure10Series reproduces Figure 10's qualitative comparison: the real
// RSRP series and the GenDT / stitched-short generations over the long
// trajectory. The Table8 rows quantify the same artifact; the
// BoundaryJumpExcess statistic quantifies the visible stitching seams.
type Figure10Series struct {
	Real     []float64
	GenDT    []float64
	Short    []float64
	ShortLen int
	// BoundaryJumpExcess is the mean |Δ| of the stitched series at its
	// batch boundaries minus the mean |Δ| of the GenDT series at the same
	// points — positive values mean visible stitching artifacts.
	BoundaryJumpExcess float64
}

// BoundaryJumpExcess computes the stitched-minus-carried boundary jump
// statistic for two generated series and a stitching period.
func BoundaryJumpExcess(gendt, short []float64, period int) float64 {
	if period < 1 || len(short) != len(gendt) {
		return 0
	}
	var js, jg float64
	n := 0
	for t := period; t < len(short); t += period {
		js += abs(short[t] - short[t-1])
		jg += abs(gendt[t] - gendt[t-1])
		n++
	}
	if n == 0 {
		return 0
	}
	return (js - jg) / float64(n)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// RenderDensity prints Figure 4's bars.
func RenderDensity(cases []DensityCase) string {
	var b strings.Builder
	fmt.Fprintln(&b, "== Figure 4: cell density per case ==")
	for _, c := range cases {
		fmt.Fprintf(&b, "%-20s %6.2f cells/km2 (Dataset %s)\n", c.Case, c.PerKm2, c.Dataset)
	}
	return b.String()
}

// RenderCDFs prints Figure 16-style medians.
func RenderCDFs(title string, cdfs []ServingDistanceCDF) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	for _, c := range cdfs {
		fmt.Fprintf(&b, "%-16s median serving-cell distance %6.0f m (n=%d)\n",
			c.Scenario, c.Median, len(c.Values))
	}
	return b.String()
}

// ASCIISeries renders a compact ASCII sparkline of a series (for the cmd
// tool's figure output).
func ASCIISeries(name string, xs []float64, width int) string {
	if len(xs) == 0 || width <= 0 {
		return name + ": (empty)\n"
	}
	lo, hi := xs[0], xs[0]
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s [%7.1f, %7.1f] ", name, lo, hi)
	step := float64(len(xs)) / float64(width)
	for i := 0; i < width; i++ {
		v := xs[int(float64(i)*step)]
		g := 0
		if hi > lo {
			g = int((v - lo) / (hi - lo) * float64(len(glyphs)-1))
		}
		b.WriteRune(glyphs[g])
	}
	b.WriteString("\n")
	return b.String()
}
