package validate

import (
	"fmt"
	"math"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/geo"
	"gendt/internal/metrics"
)

// monotonicSlack is the fixed tolerance (normalized KPI units) the physical
// monotonicity checks allow: a weakly trained model may show a small
// inversion from sampling noise, but a model that has learned no physics at
// all — or a corrupted one — violates the ordering by much more. The slack
// is deliberately not golden-driven: these invariants hold for any sane
// model regardless of how it was trained.
const monotonicSlack = 0.05

// monotonicSamples is how many independent generations each monotonicity
// arm averages over before comparing means.
const monotonicSamples = 3

// metamorphicChecks runs the ground-truth-free invariants: seed
// determinism across execution paths, permutation invariance, truncation
// consistency, and physical monotonicity. The truncation and RSRP-distance
// checks generate on the serving path, so the served check replays them.
func metamorphicChecks(sp *servingPath, routes []dataset.Run, seqs []*core.Sequence, opts Options, rep *Report) {
	g := sp.g
	checkSeedDeterminismSerial(g, seqs[0], opts, rep)
	checkSeedDeterminismWorkers(g, seqs, opts, rep)
	checkPermutationInvariance(g, seqs, opts, rep)
	checkBatchedEngineIdentity(g, seqs, opts, rep)
	checkTruncationConsistency(sp, routes[0].Traj, opts, rep)
	checkMonotonicRSRPDistance(sp, routes[0].Traj, opts, rep)
	checkMonotonicSINRLoad(g, seqs[0], opts, rep)
}

// checkSeedDeterminismSerial: two independent generations from the same
// backend must produce bit-identical series for the same (sequence, seed).
func checkSeedDeterminismSerial(g core.Generator, seq *core.Sequence, opts Options, rep *Report) {
	a := g.GenerateSeeded(seq, opts.Seed)
	b := g.GenerateSeeded(seq, opts.Seed)
	ok, detail := seriesEqual(a, b)
	rep.add(CheckResult{Name: "meta/seed-determinism-serial", Passed: ok, Detail: detail})
}

// checkSeedDeterminismWorkers: GenerateJobs must be bit-identical across
// Workers=1, Workers=N, and the direct per-job path. This is the contract
// the serving layer's reproducibility guarantee stands on.
func checkSeedDeterminismWorkers(g core.Generator, seqs []*core.Sequence, opts Options, rep *Report) {
	jobs := make([]core.GenJob, len(seqs))
	for i, seq := range seqs {
		jobs[i] = core.GenJob{Seq: seq, Seed: core.DeriveSeed(opts.Seed, i)}
	}
	outSerial := g.WithWorkers(1).GenerateJobs(jobs)
	outParallel := g.WithWorkers(opts.Workers).GenerateJobs(jobs)
	for i, job := range jobs {
		direct := g.DenormalizeSeries(g.GenerateSeeded(job.Seq, job.Seed))
		if ok, detail := seriesEqual(outSerial[i], direct); !ok {
			rep.add(CheckResult{
				Name: "meta/seed-determinism-workers", Passed: false,
				Detail: fmt.Sprintf("job %d: serial vs direct: %s", i, detail),
			})
			return
		}
		if ok, detail := seriesEqual(outSerial[i], outParallel[i]); !ok {
			rep.add(CheckResult{
				Name: "meta/seed-determinism-workers", Passed: false,
				Detail: fmt.Sprintf("job %d: Workers=1 vs Workers=%d: %s", i, opts.Workers, detail),
			})
			return
		}
	}
	rep.add(CheckResult{
		Name: "meta/seed-determinism-workers", Passed: true,
		Detail: fmt.Sprintf("%d jobs, Workers 1 vs %d vs direct", len(jobs), opts.Workers),
	})
}

// checkPermutationInvariance: each job's output must not depend on where
// it sits in the batch — reversing the job list must reverse the outputs
// bit-identically.
func checkPermutationInvariance(g core.Generator, seqs []*core.Sequence, opts Options, rep *Report) {
	jobs := make([]core.GenJob, len(seqs))
	for i, seq := range seqs {
		jobs[i] = core.GenJob{Seq: seq, Seed: core.DeriveSeed(opts.Seed, i)}
	}
	rev := make([]core.GenJob, len(jobs))
	for i := range jobs {
		rev[i] = jobs[len(jobs)-1-i]
	}
	gg := g.WithWorkers(opts.Workers)
	fwd := gg.GenerateJobs(jobs)
	bwd := gg.GenerateJobs(rev)
	for i := range jobs {
		if ok, detail := seriesEqual(fwd[i], bwd[len(jobs)-1-i]); !ok {
			rep.add(CheckResult{
				Name: "meta/permutation-invariance", Passed: false,
				Detail: fmt.Sprintf("job %d: %s", i, detail),
			})
			return
		}
	}
	rep.add(CheckResult{
		Name: "meta/permutation-invariance", Passed: true,
		Detail: fmt.Sprintf("%d jobs forward vs reversed", len(jobs)),
	})
}

// checkBatchedEngineIdentity: on the frozen backends' lockstep engine a
// job's output must not depend on what shares the engine with it —
// GenerateJobs (chunks of up to the engine's width) and each job alone
// through GenerateSeeded (width 1) must be bit-identical, over a job mix
// whose uneven lengths force ragged lane retirement inside the
// micro-batch. Live f64 models have no batched engine, so the check skips
// there.
func checkBatchedEngineIdentity(g core.Generator, seqs []*core.Sequence, opts Options, rep *Report) {
	const name = "meta/batched-engine-identity"
	im, ok := g.(*core.InferModel)
	if !ok {
		rep.skip(name, "live f64 backend has no batched engine")
		return
	}
	var jobs []core.GenJob
	for i := 0; i < 10; i++ { // > one micro-batch, non-multiple of its width
		seq := seqs[i%len(seqs)]
		if cut := seq.Len() - i; i%2 == 1 && cut > 0 {
			seq = &core.Sequence{
				KPIs: seq.KPIs[:cut], Cells: seq.Cells[:cut], Env: seq.Env[:cut],
				Raw: seq.Raw[:cut], Interval: seq.Interval,
			}
		}
		jobs = append(jobs, core.GenJob{Seq: seq, Seed: core.DeriveSeed(opts.Seed, 100+i)})
	}
	batched := im.WithWorkers(opts.Workers).GenerateJobs(jobs)
	for i, job := range jobs {
		alone := im.DenormalizeSeries(im.GenerateSeeded(job.Seq, job.Seed))
		if ok, detail := seriesEqual(batched[i], alone); !ok {
			rep.add(CheckResult{
				Name: name, Passed: false,
				Detail: fmt.Sprintf("job %d (T=%d): GenerateJobs vs GenerateSeeded: %s", i, job.Seq.Len(), detail),
			})
			return
		}
	}
	rep.add(CheckResult{
		Name: name, Passed: true,
		Detail: fmt.Sprintf("%d mixed-length jobs, GenerateJobs vs per-job GenerateSeeded", len(jobs)),
	})
}

// checkTruncationConsistency: generating a prefix route must reproduce the
// prefix of the full route's generation bit-for-bit, provided the cut
// falls on a batch boundary (generation runs in non-overlapping batches of
// BatchLen; within a batch the RNG draws depend on the batch's own cell
// visibility, so a mid-batch cut is allowed to differ). Both routes are
// samples=1 requests at the run seed, prepared as a replica prepares them.
func checkTruncationConsistency(sp *servingPath, tr geo.Trajectory, opts Options, rep *Report) {
	const name = "meta/truncation-consistency"
	L := sp.g.ModelConfig().BatchLen
	P := (len(tr) / 2 / L) * L
	if P == 0 && len(tr) > L {
		P = L
	}
	if P < 2 { // a served route needs two points
		rep.skip(name, fmt.Sprintf("route too short (%d steps, batch %d)", len(tr), L))
		return
	}
	full := sp.sample("truncation full route", tr, opts.Seed)
	part := sp.sample("truncation prefix", tr[:P], opts.Seed)
	ok, detail := seriesEqual(full[:P], part)
	if ok {
		detail = fmt.Sprintf("prefix %d of %d steps", P, len(tr))
	}
	rep.add(CheckResult{Name: name, Passed: ok, Detail: detail})
}

// checkMonotonicRSRPDistance: a route hugging a cell site must not get a
// lower mean RSRP than the same-shaped route far from it. The two probe
// routes circle a real cell of the dataset's deployment at ~150 m and
// ~1500 m, annotated by the resident world, so the model sees genuine
// context — only the distance differs.
func checkMonotonicRSRPDistance(sp *servingPath, tr geo.Trajectory, opts Options, rep *Report) {
	const name = "meta/monotonic-rsrp-distance"
	ci := channelIndex(sp.g, "RSRP")
	if ci < 0 {
		rep.skip(name, "model has no RSRP channel")
		return
	}
	centroid := trajCentroid(tr)
	vis := opts.Dataset.World.Deployment.Visible(centroid, opts.Dataset.World.VisibleRange)
	if len(vis) == 0 {
		rep.skip(name, "no cell visible near held-out route")
		return
	}
	site := vis[0].Cell.Site
	near := meanChannelOnCircle(sp, opts, site, 150, ci)
	far := meanChannelOnCircle(sp, opts, site, 1500, ci)
	rep.add(CheckResult{
		Name: name, Passed: far-near <= monotonicSlack,
		Observed: far - near, Limit: monotonicSlack,
		Detail: fmt.Sprintf("mean norm RSRP near=%.3f far=%.3f", near, far),
	})
}

// meanChannelOnCircle generates monotonicSamples samples on a 40-step
// circle of the given radius around site and returns the mean normalized
// value of channel ci. The circle is also queued for the served check as
// one samples=monotonicSamples request.
func meanChannelOnCircle(sp *servingPath, opts Options, site geo.Point, radius float64, ci int) float64 {
	const steps = 40
	tr := make(geo.Trajectory, steps)
	for i := 0; i < steps; i++ {
		p := geo.Offset(site, float64(i)*360/steps, radius)
		tr[i] = geo.Sample{Point: p, T: float64(i)}
	}
	seq, _ := sp.world.Prepare(tr, sp.g)
	var vals []float64
	for s := 0; s < monotonicSamples; s++ {
		gen := sp.g.GenerateSeeded(seq, core.DeriveSeed(opts.Seed, 1000+s))
		for t := range gen {
			vals = append(vals, gen[t][ci])
		}
	}
	sp.request(fmt.Sprintf("RSRP probe circle %g m", radius), tr, core.DeriveSeed(opts.Seed, 1000), monotonicSamples)
	return metrics.Mean(vals)
}

// checkMonotonicSINRLoad: raising every visible cell's load must not raise
// the generated SINR. Only meaningful for load-aware models (others never
// see the load attribute).
func checkMonotonicSINRLoad(g core.Generator, seq *core.Sequence, opts Options, rep *Report) {
	const name = "meta/monotonic-sinr-load"
	ci := channelIndex(g, "SINR")
	if ci < 0 {
		rep.skip(name, "model has no SINR channel")
		return
	}
	if !g.ModelConfig().LoadAware {
		rep.skip(name, "model is not load-aware")
		return
	}
	mean := func(load float64) float64 {
		loaded := seqWithLoad(seq, load)
		var vals []float64
		for s := 0; s < monotonicSamples; s++ {
			gen := g.GenerateSeeded(loaded, core.DeriveSeed(opts.Seed, 2000+s))
			for t := range gen {
				vals = append(vals, gen[t][ci])
			}
		}
		return metrics.Mean(vals)
	}
	low := mean(0.1)
	high := mean(0.9)
	rep.add(CheckResult{
		Name: name, Passed: high-low <= monotonicSlack,
		Observed: high - low, Limit: monotonicSlack,
		Detail: fmt.Sprintf("mean norm SINR load=0.1:%.3f load=0.9:%.3f", low, high),
	})
}

// seqWithLoad deep-copies the sequence's cell contexts with every cell's
// load attribute overridden. KPIs/Env/Raw are shared (read-only on the
// generation path).
func seqWithLoad(seq *core.Sequence, load float64) *core.Sequence {
	out := &core.Sequence{
		KPIs: seq.KPIs, Env: seq.Env, Raw: seq.Raw, Interval: seq.Interval,
		Cells: make([][][]float64, len(seq.Cells)),
	}
	for t, cellsAtT := range seq.Cells {
		cp := make([][]float64, len(cellsAtT))
		for i, attrs := range cellsAtT {
			a := append([]float64(nil), attrs...)
			if len(a) > core.NumCellAttrs {
				a[core.NumCellAttrs] = load
			}
			cp[i] = a
		}
		out.Cells[t] = cp
	}
	return out
}

// channelIndex finds a channel by name, -1 if absent.
func channelIndex(g core.Generator, name string) int {
	for i, ch := range g.ModelConfig().Channels {
		if ch.Name == name {
			return i
		}
	}
	return -1
}

// trajCentroid returns the mean location of a trajectory.
func trajCentroid(tr geo.Trajectory) geo.Point {
	var lat, lon float64
	for _, p := range tr {
		lat += p.Lat
		lon += p.Lon
	}
	n := float64(len(tr))
	return geo.Point{Lat: lat / n, Lon: lon / n}
}

// seriesEqual reports bit-exact equality of two series (any consistent
// orientation) and describes the first difference.
func seriesEqual(a, b [][]float64) (bool, string) {
	if len(a) != len(b) {
		return false, fmt.Sprintf("row count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false, fmt.Sprintf("row %d length %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false, fmt.Sprintf("row %d col %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return true, ""
}
