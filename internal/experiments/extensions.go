package experiments

import (
	"fmt"
	"strings"
	"sync"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/mdt"
)

// These experiments go beyond the paper's evaluation and exercise its two
// named future-work directions (§7.2): comparing against MDT and
// crowdsourced measurement collection, and a closed-loop design that
// conditions on network-side load.

// MDTRow is one row of the measurement-source comparison.
type MDTRow struct {
	Source  string
	Samples int
	MAE     float64
	DTW     float64
	HWD     float64
}

// ExtMDTComparison trains identical GenDT models on equal sample budgets
// drawn from (a) controlled drive testing, (b) a simulated MDT campaign
// (sporadic, core-skewed, location-noisy reports), and (c) a simulated
// crowdsourcing campaign (additionally signal-only and coarse-grained),
// then evaluates RSRP fidelity on the same held-out drive-test routes.
// The paper hypothesizes drive-test data is the most dependable per
// sample; this experiment quantifies it inside the simulated world.
func ExtMDTComparison(opt Options) []MDTRow {
	d := opt.DatasetA()
	chans := []core.ChannelSpec{core.KPIChannel(0)}
	driveTrain := d.TrainRuns()
	budget := 0
	for _, r := range driveTrain {
		budget += len(r.Meas)
	}
	center := driveTrain[0].Traj.Centroid()

	mdtSpec := mdt.DefaultMDT(opt.Seed + 31)
	crowdSpec := mdt.DefaultCrowdsourcing(opt.Seed + 32)
	mdtRuns := mdt.TrimTo(mdt.Collect(d.World, center, mdtSpec), budget)
	crowdRuns := mdt.TrimTo(mdt.Collect(d.World, center, crowdSpec), budget)

	sources := []struct {
		name string
		runs []dataset.Run
	}{
		{"Drive test", driveTrain},
		{"MDT", mdtRuns},
		{"Crowdsourcing", crowdRuns},
	}
	testSeqs := make([]*core.Sequence, 0, len(d.TestRuns()))
	for _, r := range d.TestRuns() {
		testSeqs = append(testSeqs, core.PrepareSequence(r, chans, opt.MaxCells))
	}

	out := make([]MDTRow, len(sources))
	var wg sync.WaitGroup
	for si, src := range sources {
		wg.Add(1)
		go func(si int, name string, runs []dataset.Run) {
			defer wg.Done()
			row := MDTRow{Source: name, Samples: mdt.SampleCount(runs)}
			if len(runs) == 0 {
				out[si] = row
				return
			}
			train := core.PrepareAll(runs, chans, opt.MaxCells)
			cfg := opt.gendtConfig(chans)
			cfg.Seed = opt.Seed + int64(si)
			m := core.NewModel(cfg)
			m.Train(train, nil)
			n := 0
			for _, seq := range testSeqs {
				rows := evaluate(chans, seq, m.Generate(seq))
				row.MAE += rows[0].MAE
				row.DTW += rows[0].DTW
				row.HWD += rows[0].HWD
				n++
			}
			if n > 0 {
				row.MAE /= float64(n)
				row.DTW /= float64(n)
				row.HWD /= float64(n)
			}
			out[si] = row
		}(si, src.name, src.runs)
	}
	wg.Wait()
	return out
}

// RenderMDT prints the measurement-source comparison.
func RenderMDT(rows []MDTRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "== Extension: training-data source comparison (RSRP, Dataset A world) ==")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s n=%-6d MAE=%6.2f DTW=%6.2f HWD=%6.2f\n",
			r.Source, r.Samples, r.MAE, r.DTW, r.HWD)
	}
	return b.String()
}

// ClosedLoopRow compares open-loop GenDT (the paper's design) against the
// closed-loop variant that additionally conditions on per-cell load.
type ClosedLoopRow struct {
	Variant string
	RSRQ    FidelityRow
	SINR    FidelityRow
}

// ExtClosedLoop evaluates the §7.2 closed-loop extension: cell load mostly
// moves RSRQ and SINR (interference), so conditioning on network-side load
// should pay off on exactly those channels.
func ExtClosedLoop(opt Options) []ClosedLoopRow {
	d := opt.DatasetA()
	chans := []core.ChannelSpec{
		core.KPIChannel(1), // RSRQ
		core.KPIChannel(2), // SINR
	}
	variants := []struct {
		name      string
		loadAware bool
	}{
		{"Open loop (paper)", false},
		{"Closed loop (+load)", true},
	}
	out := make([]ClosedLoopRow, len(variants))
	var wg sync.WaitGroup
	for vi, v := range variants {
		wg.Add(1)
		go func(vi int, name string, loadAware bool) {
			defer wg.Done()
			prep := core.PrepareOptions{MaxCells: opt.MaxCells, LoadAware: loadAware}
			var train []*core.Sequence
			for _, r := range d.TrainRuns() {
				train = append(train, core.PrepareSequenceWith(r, chans, prep))
			}
			cfg := opt.gendtConfig(chans)
			cfg.LoadAware = loadAware
			m := core.NewModel(cfg)
			m.Train(train, nil)
			row := ClosedLoopRow{Variant: name}
			n := 0
			for _, r := range d.TestRuns() {
				seq := core.PrepareSequenceWith(r, chans, prep)
				rows := evaluate(chans, seq, m.Generate(seq))
				row.RSRQ.MAE += rows[0].MAE
				row.RSRQ.DTW += rows[0].DTW
				row.RSRQ.HWD += rows[0].HWD
				row.SINR.MAE += rows[1].MAE
				row.SINR.DTW += rows[1].DTW
				row.SINR.HWD += rows[1].HWD
				n++
			}
			if n > 0 {
				for _, fr := range []*FidelityRow{&row.RSRQ, &row.SINR} {
					fr.MAE /= float64(n)
					fr.DTW /= float64(n)
					fr.HWD /= float64(n)
				}
			}
			out[vi] = row
		}(vi, v.name, v.loadAware)
	}
	wg.Wait()
	return out
}

// RenderClosedLoop prints the open- vs closed-loop comparison.
func RenderClosedLoop(rows []ClosedLoopRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "== Extension: open-loop vs closed-loop (load-aware) GenDT ==")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s RSRQ: MAE=%5.2f DTW=%5.2f HWD=%5.2f | SINR: MAE=%5.2f DTW=%5.2f HWD=%5.2f\n",
			r.Variant, r.RSRQ.MAE, r.RSRQ.DTW, r.RSRQ.HWD,
			r.SINR.MAE, r.SINR.DTW, r.SINR.HWD)
	}
	return b.String()
}
