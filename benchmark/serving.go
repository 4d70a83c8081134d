package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"gendt/internal/metrics"
	"gendt/internal/serve"
)

// servingSpec sizes one serving workload. Both go through lb to two replicas
// from nproc keep-alive connections.
type servingSpec struct {
	routes, steps, samples int
	poisson                bool // Poisson arrivals; evenly paced otherwise
	cycle                  bool // visit the routes in order, so none repeats soon
	rates                  [ladderRungs]float64
	ref                    int     // index into rates of the reference rate
	limitMs                float64 // latency limit on the tail percentile
}

var servingSpecs = map[string]servingSpec{
	// 16 hot routes: after warm-up every prepare is a cache hit, one sample
	// per request, so the engine is about a fifth of a request and the batch
	// window, HTTP, JSON and the LB hop are the rest.
	"serve-short": {routes: 16, steps: 24, samples: 1, poisson: true,
		rates: [ladderRungs]float64{100, 200, 300, 400}, ref: 1, limitMs: 10},
	// 256 distinct routes in turn against two 64-entry FIFO prepare caches:
	// every request misses. 8 samples fill one 8-lane engine chunk (the
	// paper's Fig. 9 envelope), and paced arrivals make latency service time.
	"serve-envelope": {routes: 256, steps: 48, samples: 8, cycle: true,
		rates: [ladderRungs]float64{20, 40, 60, 80}, ref: 1, limitMs: 30},
}

// servingRun holds what a serving workload needs between phases.
type servingRun struct {
	spec    servingSpec
	fx      *fixture
	traffic *traffic
	rng     *rand.Rand
	client  *http.Client
	url     string
	world   *serve.World // the verifier's own

	sent, failed int
	seeds        []int64 // of the requests of the last window
}

func newServingRun(spec servingSpec, fx *fixture, seed int64) (*servingRun, error) {
	rng := rand.New(rand.NewSource(seed))
	routes, err := cutRoutes(fx.ds, rng, spec.routes, spec.steps)
	if err != nil {
		return nil, err
	}
	return &servingRun{
		spec: spec, fx: fx, rng: rng,
		traffic: &traffic{routes: routes, samples: spec.samples, cycle: spec.cycle, nextID: seed * 1_000_000},
		client:  newClient(nproc()),
		url:     fx.fleet.url + serve.EndpointGenerate,
		world:   serve.NewWorldFrom(fx.ds),
	}, nil
}

// window offers the given rate for dur and verifies the recorded responses.
func (sr *servingRun) window(rps float64, dur time.Duration) ([]outcome, time.Time, error) {
	reqs := sr.traffic.schedule(sr.rng, arrivals(sr.rng, rps, dur, sr.spec.poisson))
	outs, start := drive(sr.client, sr.url, reqs, nproc())
	sr.seeds = sr.seeds[:0]
	for _, o := range outs {
		sr.sent++
		if !o.ok() {
			sr.failed++
		}
		sr.seeds = append(sr.seeds, o.req.seed)
	}
	return outs, start, sr.verify(outs)
}

// verify checks every recorded 200 response offline. A failed request is
// counted, not verified.
func (sr *servingRun) verify(outs []outcome) error {
	for _, o := range outs {
		if o.body == nil || !o.ok() {
			continue
		}
		rt := sr.traffic.routes[o.req.route]
		if err := verifyResponse(sr.fx.f32, sr.world, rt.traj, o.req.seed, sr.spec.samples, o.body); err != nil {
			return fmt.Errorf("request seed %d: %w", o.req.seed, err)
		}
	}
	return nil
}

func (sr *servingRun) warmUp(seconds float64) error {
	_, _, err := sr.window(sr.spec.rates[sr.spec.ref], secondsOf(seconds))
	return err
}

func (sr *servingRun) close() { sr.client.CloseIdleConnections() }

func runServing(wl workload, seed int64, seconds float64, traced bool) (result, error) {
	spec := servingSpecs[wl.name]
	if traced {
		return runServingTraced(wl, spec, seed, seconds)
	}
	res := result{metrics: values{}}
	fx, setupS, err := setUp(needs{model: true, fleet: true}, setupReps)
	if err != nil {
		return res, err
	}
	defer fx.close()
	res.notes = append(res.notes, fx.provenance())
	sr, err := newServingRun(spec, fx, seed)
	if err != nil {
		return res, err
	}
	defer sr.close()
	refRps := spec.rates[spec.ref]

	// Warm-up fills the prepare caches and the connection pools; the rest of
	// the run is the reference rate.
	if err := sr.warmUp(0.05 * seconds); err != nil {
		return verdict(res, err), nil
	}
	cpu0 := cpuSeconds()
	outs, _, verr := sr.window(refRps, secondsOf(0.9*seconds))
	cpu := cpuSeconds() - cpu0
	ref := summarize(refRps, outs, wl.tailPct)
	res.metrics.merge(values{
		"setup_s": setupS,
		// What the machine could deliver with every processor busy, at the
		// CPU cost per request seen at the reference rate: the generator,
		// lb and both replicas all burn their CPU in this process.
		"steps_per_s": float64(nproc()*ref.ok*spec.steps*spec.samples) / cpu,
		"p50_ms":      ref.p50Ms,
		"tail_ms":     ref.tailMs,
		// Not bounded, but they say how far to trust the latencies.
		"ref_lag_p99_ms":     ref.lagP99Ms,
		"ref_p99_ms":         ref.p99Ms,
		"cpu_ms_per_request": 1e3 * cpu / float64(ref.ok),
	})
	res.attempted, res.failed = sr.sent, sr.failed
	res.notes = append(res.notes, fmt.Sprintf("reference rate %g req/s: %d sent, %d ok; tail_ms is p%g with %d samples beyond",
		refRps, ref.sent, ref.ok, ref.tailPct, ref.beyond))
	return verdict(res, verr), nil
}

func runServingTraced(wl workload, spec servingSpec, seed int64, seconds float64) (result, error) {
	res := result{metrics: values{}}
	fx, err := buildFixture(needs{model: true, int8: true, fleet: true}, nil)
	if err != nil {
		return res, err
	}
	defer func() { fx.close() }()
	res.notes = append(res.notes, fx.provenance())
	res.metrics.merge(fx.split)
	res.metrics.merge(probeAll(fx))
	sr, err := newServingRun(spec, fx, seed)
	if err != nil {
		return res, err
	}
	defer sr.close()
	refRps := spec.rates[spec.ref]

	// The ladder on the untraced fleet: reference rate first, then the rest.
	verr := sr.warmUp(0.05 * seconds)
	rungs := make([]rung, ladderRungs)
	cpu0 := cpuSeconds()
	outs, _, werr := sr.window(refRps, secondsOf(0.25*seconds))
	cpu := cpuSeconds() - cpu0
	verr = errors.Join(verr, werr)
	plain := summarize(refRps, outs, 0)
	rungs[spec.ref] = plain
	for i, rps := range spec.rates {
		if i == spec.ref {
			continue
		}
		outs, _, werr := sr.window(rps, secondsOf(0.1*seconds))
		verr = errors.Join(verr, werr)
		rungs[i] = summarize(rps, outs, 0)
	}
	for i, r := range rungs {
		p := fmt.Sprintf("gen.r%d_", i+1)
		res.metrics.merge(values{
			p + "rps": r.rps, p + "sent": float64(r.sent), p + "ok": float64(r.ok), p + "failed": float64(r.failed),
			p + "lag_p99_ms": r.lagP99Ms, p + "tail_ms": r.tailMs,
		})
		res.notes = append(res.notes, fmt.Sprintf("rung %g req/s: p50 %.3f ms, p%g %.3f ms (%d beyond), lag p99 %.3f ms, last-tenth lag %.3f ms, meets limit: %v",
			r.rps, r.p50Ms, r.tailPct, r.tailMs, r.beyond, r.lagP99Ms, r.lastTenthLagMs, r.meets(spec.limitMs)))
	}
	res.metrics["gen.max_ok_rps"] = maxOKRps(rungs, spec.limitMs)
	res.metrics["gen.ref_lag_p99_ms"] = plain.lagP99Ms
	res.metrics["gen.cpu_ms_per_request"] = 1e3 * cpu / float64(plain.ok)

	// The same rate again on a fleet with spans around lb, serve and core.
	fx.close()
	sr.client.CloseIdleConnections()
	tr := newTracer()
	if fx.fleet, err = bootFleet(fx.f32, fx.ds, tr); err != nil {
		return res, err
	}
	verr = errors.Join(verr, sr.warmUp(0.05*seconds))
	var start time.Time
	before := readProcStats()
	shares, err := profileCPU(func() { outs, start, werr = sr.window(refRps, secondsOf(0.25*seconds)) })
	if err != nil {
		return res, err
	}
	after := readProcStats()
	verr = errors.Join(verr, werr)
	tracedRung := summarize(refRps, outs, 0)
	for _, o := range outs {
		if o.ok() {
			due, sent, done := tr.since(start.Add(o.req.due)), tr.since(start.Add(o.sent)), tr.since(start.Add(o.done))
			tr.add(span{Layer: layerReq, ID: o.req.seed, Start: due, End: done})
			tr.add(span{Layer: layerSend, ID: o.req.seed, Parent: layerReq, Start: sent, End: done})
		}
	}
	tr.resolveCalls(sr.seeds)
	lt := reduceSpans(tr.spans)
	res.metrics.merge(shares)
	res.metrics.merge(replayServe(sr, outs))
	hits, misses := int64(0), int64(0)
	for _, s := range fx.fleet.servers {
		hits += s.Metrics().PrepHits.Load()
		misses += s.Metrics().PrepMisses.Load()
	}
	snap := fx.fleet.balancer.Snapshot()
	most, total := int64(0), int64(0)
	for _, r := range snap.Replicas {
		total += r.Requests
		if r.Requests > most {
			most = r.Requests
		}
	}
	prepare := res.metrics["serve.prepare_miss_us"]
	if !spec.cycle {
		prepare = res.metrics["serve.prepare_hit_us"]
	}
	res.metrics.merge(values{
		"core.generate_us_p50":  lt.coreP50,
		"core.generate_us_p95":  lt.coreP95,
		"serve.pre_us":          lt.servePre,
		"serve.post_us":         lt.servePost,
		"serve.batch_wait_us":   lt.servePre - res.metrics["serve.json_decode_us"] - prepare,
		"serve.prep_hit_share":  float64(hits) / float64(hits+misses),
		"serve.batch_jobs_mean": metrics.Mean(tr.callJobs),
		"serve.batch_reqs_mean": metrics.Mean(tr.callReqs),
		"gen.lag_us":            lt.lag,
		"gen.wire_us":           lt.wire,
		"lb.self_us":            lt.lbSelf,
		"lb.retries":            float64(snap.Retries),
		"lb.sheds":              float64(snap.Sheds),
		"lb.replica_skew":       float64(most) * float64(len(snap.Replicas)) / float64(total),
		"gen.fail_share":        float64(sr.failed) / float64(sr.sent),
		"trace.overhead_pct":    100 * (tracedRung.p50Ms - plain.p50Ms) / plain.p50Ms,
		"trace.spans":           float64(len(tr.spans)),
	})
	res.metrics.merge(memMetrics(before, after, len(outs)))
	res.attempted, res.failed = sr.sent, sr.failed
	sum := (lt.lbSelf + lt.servePre + lt.coreP50 + lt.servePost) / 1e3
	res.notes = append(res.notes, fmt.Sprintf("%d requests traced; lb.self + serve.pre + core.generate + serve.post = %.3f ms, gen.wire %.3f ms, gen.lag %.3f ms: %.3f ms against an untraced p50 of %.3f ms (traced %.3f ms)",
		lt.n, sum, lt.wire/1e3, lt.lag/1e3, sum+(lt.wire+lt.lag)/1e3, plain.p50Ms, tracedRung.p50Ms))
	path, err := tr.writeSpans(wl.name)
	if err != nil {
		return res, err
	}
	res.notes = append(res.notes, "spans written to "+path)
	return verdict(res, verr), nil
}

// replayServe times, by direct calls on the window's own inputs and outputs,
// the steps of serve's handler that a span around it cannot separate: body
// decode, prepare on a miss and on a hit, and response encode. Medians, µs.
func replayServe(sr *servingRun, outs []outcome) values {
	var decode, miss, hit, encode []float64
	us := func(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e3 }
	world := serve.NewWorldFrom(sr.fx.ds)
	const sample = 64
	for i, o := range outs {
		if i >= sample {
			break
		}
		var req serve.GenerateRequest
		t0 := time.Now()
		if err := json.NewDecoder(bytes.NewReader(o.req.body)).Decode(&req); err != nil {
			continue
		}
		decode = append(decode, us(t0))
	}
	for i, rt := range sr.traffic.routes {
		if i >= sample { // the world's cache holds 64: stay inside it so second calls hit
			break
		}
		t0 := time.Now()
		world.Prepare(rt.traj, sr.fx.f32)
		miss = append(miss, us(t0))
	}
	for i, rt := range sr.traffic.routes {
		if i >= sample {
			break
		}
		t0 := time.Now()
		world.Prepare(rt.traj, sr.fx.f32)
		hit = append(hit, us(t0))
	}
	for _, o := range outs {
		if o.body == nil || !o.ok() {
			continue
		}
		var resp serve.GenerateResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			continue
		}
		t0 := time.Now()
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", " ") // as serve writes it
		if err := enc.Encode(resp); err != nil {
			continue
		}
		encode = append(encode, us(t0))
	}
	return values{
		"serve.json_decode_us":  median(decode),
		"serve.prepare_miss_us": median(miss),
		"serve.prepare_hit_us":  median(hit),
		"serve.json_encode_us":  median(encode),
	}
}
