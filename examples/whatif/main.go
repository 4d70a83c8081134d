// Whatif: the paper's §C.2 what-if analysis — study the radio-KPI impact
// of deploying a new cell *before building it*. We train GenDT on the
// existing deployment, find the weakest-coverage stretch of an unseen
// route, place a hypothetical new sectorized site there, regenerate the
// KPI series under the augmented network context, and compare. The
// simulator then plays the role of reality to validate the what-if
// prediction.
package main

import (
	"fmt"
	"math/rand"

	"gendt"
)

func main() {
	data := gendt.NewDatasetA(gendt.DatasetSpec{Seed: 3, Scale: 0.04})
	chans := []gendt.ChannelSpec{gendt.KPIChannel(0)} // RSRP
	train := gendt.PrepareAll(data.TrainRuns(), chans, 10)

	model := gendt.NewModel(gendt.Config{
		Channels: chans,
		Hidden:   24, BatchLen: 24, StepLen: 6, MaxCells: 10,
		Epochs: 12, Seed: 3,
	})
	fmt.Println("training", model, "on existing deployment")
	model.Train(train, nil)

	// Pick an unseen route and find its weakest-coverage location.
	run := data.TestRuns()[0]
	seq := gendt.PrepareSequence(run, chans, 10)
	base := model.DenormalizeSeries(model.Generate(seq))[0]
	worst, worstV := 0, base[0]
	for t, v := range base {
		if v < worstV {
			worst, worstV = t, v
		}
	}
	spot := run.Meas[worst].Loc
	fmt.Printf("\nweakest generated RSRP %.1f dBm at sample %d (%.5f, %.5f)\n",
		worstV, worst, spot.Lat, spot.Lon)

	// Hypothetical new site: three sectors at the weak spot.
	maxID := 0
	for _, c := range data.World.Deployment.Cells {
		if c.ID > maxID {
			maxID = c.ID
		}
	}
	augmented := data.WithExtraCells(gendt.NewSiteAt(spot, maxID+1, 3, 43))

	// Re-annotate the same trajectory against the augmented deployment and
	// regenerate. (The ground-truth KPIs in this re-simulation are used
	// only for validation below; GenDT sees only the context.)
	augMeas := augmented.DriveTest(run.Traj, rand.New(rand.NewSource(99)))
	augRun := gendt.Run{Scenario: run.Scenario, Traj: run.Traj, Meas: augMeas}
	augSeq := gendt.PrepareSequence(augRun, chans, 10)
	what := model.DenormalizeSeries(model.Generate(augSeq))[0]

	// Report the predicted improvement around the weak spot and overall.
	lo, hi := worst-20, worst+20
	if lo < 0 {
		lo = 0
	}
	if hi > len(base) {
		hi = len(base)
	}
	fmt.Printf("\nGenDT what-if prediction (new 3-sector site at weak spot):\n")
	fmt.Printf("  RSRP near weak spot: %.1f -> %.1f dBm (predicted)\n",
		mean(base[lo:hi]), mean(what[lo:hi]))
	fmt.Printf("  RSRP over full route: %.1f -> %.1f dBm (predicted)\n",
		mean(base), mean(what))

	// Validate against the simulator's "reality".
	realAug := make([]float64, len(augMeas))
	for i, m := range augMeas {
		realAug[i] = m.RSRP
	}
	realBase := make([]float64, len(run.Meas))
	for i, m := range run.Meas {
		realBase[i] = m.RSRP
	}
	fmt.Printf("\nsimulated reality:\n")
	fmt.Printf("  RSRP near weak spot: %.1f -> %.1f dBm (actual)\n",
		mean(realBase[lo:hi]), mean(realAug[lo:hi]))
	fmt.Printf("  RSRP over full route: %.1f -> %.1f dBm (actual)\n",
		mean(realBase), mean(realAug))
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
