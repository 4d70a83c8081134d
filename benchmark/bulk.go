package main

import (
	"fmt"
	"time"

	"gendt/internal/core"
)

// jobsPerCall is one bulk operation: 8 chunks of 8 lanes over the world's 18
// full-length routes, whose lengths differ, so lanes end raggedly.
const jobsPerCall = 64

// keptOutput is one job's output held back for verification after the window.
type keptOutput struct {
	job core.GenJob
	out [][]float64
}

// bulkWindow is a closed loop of GenerateJobs calls for at least dur.
type bulkWindow struct {
	secs  []float64 // per call
	steps []float64 // KPI time-steps per call
	kept  []keptOutput
}

func (w bulkWindow) calls() int { return len(w.secs) }

// runBulkWindow times calls back to back. Everything but the call itself
// (building the job list, the finiteness scan) happens outside the timed
// section. firstCall keeps seeds distinct between windows of one run.
func runBulkWindow(gen core.Generator, seqs []*core.Sequence, seed int64, dur time.Duration, firstCall int) (bulkWindow, error) {
	var w bulkWindow
	for start := time.Now(); time.Since(start) < dur; {
		call := w.calls()
		jobs := bulkJobs(seqs, seed, firstCall+call)
		t0 := time.Now()
		outs := gen.GenerateJobs(jobs)
		w.secs = append(w.secs, time.Since(t0).Seconds())
		w.steps = append(w.steps, float64(jobSteps(jobs)))
		for j, out := range outs {
			if err := finiteSeries(out); err != nil {
				return w, fmt.Errorf("call %d job %d: %w", call, j, err)
			}
		}
		k := call % len(jobs) // a different lane position each call
		w.kept = append(w.kept, keptOutput{jobs[k], outs[k]})
	}
	return w, nil
}

// verify recomputes every kept output job-at-a-time.
func (w bulkWindow) verify(gen core.Generator) error {
	for i, k := range w.kept {
		if err := verifyJob(gen, k.job, k.out); err != nil {
			return fmt.Errorf("call %d: %w", i, err)
		}
	}
	return nil
}

// rate is the median over calls of steps per second: robust to a call that a
// GC cycle or a neighbour on the machine slowed.
func (w bulkWindow) rate() float64 {
	per := make([]float64, len(w.secs))
	for i := range per {
		per[i] = w.steps[i] / w.secs[i]
	}
	return median(per)
}

func runBulk(wl workload, prec core.Precision, seed int64, seconds float64, traced bool) (result, error) {
	res := result{metrics: values{}}
	pick := func(fx *fixture) core.Generator {
		if prec == core.PrecisionInt8 {
			return fx.int8.WithWorkers(nproc())
		}
		return fx.f32.WithWorkers(nproc())
	}

	if !traced {
		fx, setupS, err := setUp(needs{model: true, int8: prec == core.PrecisionInt8}, setupReps)
		if err != nil {
			return res, err
		}
		res.notes = append(res.notes, fx.provenance())
		gen := pick(fx)
		gen.GenerateJobs(bulkJobs(fx.all, seed, 0)) // fill the state pools before timing
		w, err := runBulkWindow(gen, fx.all, seed, secondsOf(seconds), 1)
		if err != nil {
			return res, err
		}
		ms := sortedMs(w.secs)
		res.metrics.merge(values{
			"setup_s": setupS, "steps_per_s": w.rate(),
			"p50_ms": percentile(ms, 50), "tail_ms": percentile(ms, wl.tailPct),
		})
		res.attempted = w.calls() * jobsPerCall
		res.notes = append(res.notes, fmt.Sprintf("%d calls of %d jobs; tail_ms is p%g with %d calls beyond",
			w.calls(), jobsPerCall, wl.tailPct, beyond(len(ms), wl.tailPct)))
		return verdict(res, w.verify(gen)), nil
	}

	fx, err := buildFixture(needs{model: true, int8: true}, nil)
	if err != nil {
		return res, err
	}
	res.notes = append(res.notes, fx.provenance())
	res.metrics.merge(fx.split)
	res.metrics.merge(probeAll(fx))
	gen := pick(fx)
	gen.GenerateJobs(bulkJobs(fx.all, seed, 0))
	plain, err := runBulkWindow(gen, fx.all, seed, secondsOf(0.3*seconds), 1)
	if err != nil {
		return res, err
	}
	tr := newTracer()
	tgen := tracedGenerator{Generator: gen, tr: tr}
	var tw bulkWindow
	var werr error
	before := readProcStats()
	shares, err := profileCPU(func() {
		tw, werr = runBulkWindow(tgen, fx.all, seed, secondsOf(0.3*seconds), 1+plain.calls())
	})
	if err != nil {
		return res, err
	}
	if werr != nil {
		return res, werr
	}
	after := readProcStats()
	res.metrics.merge(shares)
	var gens []float64
	tr.mu.Lock()
	for i, c := range tr.calls {
		tr.spans = append(tr.spans, span{Layer: layerCore, ID: int64(i), Start: c.start, End: c.end, Jobs: len(c.seeds)})
		gens = append(gens, float64(c.end-c.start)/1e3)
	}
	tr.mu.Unlock()
	gens = sortedCopy(gens)
	res.metrics.merge(values{
		"core.generate_us_p50": percentile(gens, 50),
		"core.generate_us_p95": percentile(gens, 95),
		"trace.overhead_pct":   100 * (plain.rate() - tw.rate()) / plain.rate(),
		"trace.spans":          float64(len(tr.spans)),
	})
	res.metrics.merge(memMetrics(before, after, tw.calls()))
	res.attempted = (plain.calls() + tw.calls()) * jobsPerCall
	path, err := tr.writeSpans(wl.name)
	if err != nil {
		return res, err
	}
	res.notes = append(res.notes, "spans written to "+path)
	if err := plain.verify(gen); err != nil {
		return verdict(res, err), nil
	}
	return verdict(res, tw.verify(gen)), nil
}

// probeAll runs every workload-independent probe on a full fixture.
func probeAll(fx *fixture) values {
	v := probeKernels(fx.model.Cfg)
	v.merge(probeEngine(fx))
	v.merge(probeQuality(fx))
	return v
}

// verdict records a verification outcome on the result.
func verdict(res result, err error) result {
	res.correct = err == nil
	if err != nil {
		res.notes = append(res.notes, "VERIFICATION FAILED: "+err.Error())
	}
	return res
}
