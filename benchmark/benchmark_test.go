package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/serve"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.n >= 2*minBeyond && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, got, beyond(c.n, got))
		}
		for _, p := range tailLadder {
			if p > got && beyond(c.n, p) >= minBeyond {
				t.Errorf("n=%d: p%g would also have %d beyond, yet p%g was chosen", c.n, p, beyond(c.n, p), got)
			}
		}
	}
}

// The percentile each workload reports tail_ms at is fixed; it must be one
// the designed sample count supports at the default run length.
func TestWorkloadTailsFitTheirSampleCounts(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	seconds := float64(bf.RunSeconds)
	for name, spec := range servingSpecs {
		wl, ok := findWorkload(name)
		if !ok {
			t.Fatalf("serving spec %q is not a workload", name)
		}
		n := int(0.9 * seconds * spec.rates[spec.ref] * 0.93) // a Poisson count can run a few percent low
		if beyond(n, wl.tailPct) < minBeyond {
			t.Errorf("%s: p%g of %d samples has %d beyond, want >= %d", name, wl.tailPct, n, beyond(n, wl.tailPct), minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample should give 0")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("three values: got %g %g %g, want 1 2 3", q1, q2, q3)
	}
	if s := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); s != 1 {
		t.Errorf("spread = %g, want 1", s)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	ds, err := dataset.NewByName(worldName, dataset.Spec{Seed: worldSeed, Scale: worldScale})
	if err != nil {
		t.Fatal(err)
	}
	build := func(seed int64) []request {
		rng := rand.New(rand.NewSource(seed))
		routes, err := cutRoutes(ds, rng, 16, 24)
		if err != nil {
			t.Fatal(err)
		}
		tf := &traffic{routes: routes, samples: 1, nextID: seed * 1_000_000}
		return tf.schedule(rng, arrivals(rng, 200, 2*time.Second, true))
	}
	a, b, c := build(3), build(3), build(4)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if len(a) < 320 || len(a) > 480 {
		t.Errorf("%d arrivals in 2 s at 200/s", len(a))
	}
	seen := map[int64]bool{}
	for i, r := range a {
		if i > 0 && r.due < a[i-1].due {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
		if seen[r.seed] {
			t.Fatalf("seed %d used twice", r.seed)
		}
		seen[r.seed] = true
		if seedOf(r.body) != r.seed {
			t.Fatalf("body carries seed %d, want %d", seedOf(r.body), r.seed)
		}
		var req serve.GenerateRequest
		if err := json.Unmarshal(r.body, &req); err != nil || len(req.Route) != 24 || req.Samples != 1 {
			t.Fatalf("body does not decode to a 24-step request: %v %+v", err, req)
		}
	}
	paced := arrivals(rand.New(rand.NewSource(1)), 40, time.Second, false)
	if len(paced) != 39 {
		t.Fatalf("%d paced arrivals in 1 s at 40/s, want 39", len(paced))
	}
	for i := 1; i < len(paced); i++ {
		if gap := paced[i] - paced[i-1]; gap != 25*time.Millisecond {
			t.Fatalf("paced gap %v, want 25ms", gap)
		}
	}
	// A cycling workload visits every route before repeating one.
	tf := &traffic{routes: make([]route, 5), cycle: true}
	for i, r := range tf.schedule(rand.New(rand.NewSource(1)), make([]time.Duration, 12)) {
		if r.route != i%5 {
			t.Fatalf("request %d asks for route %d, want %d", i, r.route, i%5)
		}
	}
}

func TestSelfTimeIsParentMinusCoveredChildTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 120, End: 150}}, 70},
		{"two disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 190}}, 50},
		{"overlapping count once", []span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested counts once", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"outside the parent", []span{{Start: 10, End: 90}, {Start: 210, End: 220}}, 100},
		{"covers the parent", []span{{Start: 0, End: 300}}, 0},
		{"unsorted", []span{{Start: 150, End: 190}, {Start: 110, End: 120}}, 50},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpansReduceToLayerTimes(t *testing.T) {
	tr := newTracer()
	seed := int64(42)
	tr.add(span{Layer: layerReq, ID: seed, Start: 0, End: 10_000_000})
	tr.add(span{Layer: layerSend, ID: seed, Start: 1_000_000, End: 10_000_000})
	tr.add(span{Layer: layerLB, ID: seed, Start: 1_250_000, End: 9_750_000})
	tr.add(span{Layer: layerServe, ID: seed, Start: 2_000_000, End: 9_000_000})
	tr.calls = []engineCall{
		{start: 5_000_000, end: 8_000_000, seeds: []int64{core.DeriveSeed(seed, 0), core.DeriveSeed(seed, 1), 999}},
		{start: 0, end: 1, seeds: []int64{12345}}, // a warm-up call: no traced request in it
	}
	tr.resolveCalls([]int64{seed})
	lt := reduceSpans(tr.spans)
	want := layerTimes{lag: 1000, wire: 500, lbSelf: 1500, servePre: 3000, servePost: 1000, coreP50: 3000, coreP95: 3000, n: 1}
	if lt != want {
		t.Errorf("got %+v, want %+v", lt, want)
	}
	if len(tr.callJobs) != 1 || tr.callJobs[0] != 3 || tr.callReqs[0] != 1 {
		t.Errorf("batch stats %v jobs %v reqs, want one call of 3 jobs and 1 request", tr.callJobs, tr.callReqs)
	}
}

func TestMaxOKRpsLadder(t *testing.T) {
	ok := func(rps float64) rung {
		return rung{rps: rps, sent: 100, ok: 100, tailMs: 5, lastTenthLagMs: 0.2}
	}
	const limit = 10
	slow, failing, backlog, empty := ok(300), ok(300), ok(300), ok(300)
	slow.tailMs = 10.5
	failing.ok, failing.failed = 98, 2 // under 99 % succeeded
	backlog.lastTenthLagMs = 12        // the generator is falling behind: a backlog is growing
	empty.sent, empty.ok = 0, 0
	for _, c := range []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"all meet the limit", []rung{ok(100), ok(200), ok(300), ok(400)}, 400},
		{"slow tail stops the climb", []rung{ok(100), ok(200), slow, ok(400)}, 200},
		{"a rung above a failed one does not count", []rung{ok(100), slow, ok(300), ok(400)}, 100},
		{"failures miss the limit", []rung{ok(100), ok(200), failing}, 200},
		{"one failure in a hundred is allowed", []rung{ok(100), {rps: 200, sent: 100, ok: 99, failed: 1, tailMs: 5}}, 200},
		{"growing backlog", []rung{ok(100), ok(200), backlog, ok(400)}, 200},
		{"nothing sent", []rung{ok(100), empty}, 100},
		{"lowest rung fails", []rung{slow, ok(400)}, 0},
		{"tail exactly at the limit meets it", []rung{{rps: 100, sent: 10, ok: 10, tailMs: limit}}, 100},
	} {
		if got := maxOKRps(c.rungs, limit); got != c.want {
			t.Errorf("%s: max ok rate %g, want %g", c.name, got, c.want)
		}
	}
}

func TestSummarizeMeasuresFromDue(t *testing.T) {
	ms := time.Millisecond
	reqs := make([]request, 20)
	outs := make([]outcome, 20)
	for i := range reqs {
		reqs[i].due = time.Duration(i) * 10 * ms
		// Sent 2 ms late, answered 5 ms after that: 7 ms from due.
		outs[i] = outcome{req: &reqs[i], sent: reqs[i].due + 2*ms, done: reqs[i].due + 7*ms, status: http.StatusOK}
	}
	outs[19].status = http.StatusServiceUnavailable
	r := summarize(100, outs, 0)
	if r.sent != 20 || r.ok != 19 || r.failed != 1 {
		t.Errorf("sent/ok/failed = %d/%d/%d, want 20/19/1", r.sent, r.ok, r.failed)
	}
	if r.p50Ms != 7 || r.tailMs != 7 || r.lagP99Ms != 2 || r.lastTenthLagMs != 2 {
		t.Errorf("p50 %g tail %g lag p99 %g last-tenth lag %g, want 7 7 2 2", r.p50Ms, r.tailMs, r.lagP99Ms, r.lastTenthLagMs)
	}
	if r.meets(10) {
		t.Error("19 of 20 succeeded, which is under 99 %: the rung must not meet the limit")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the tables in metrics.go must say the same thing, within
// the limits the contract sets on the file.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths %v", bf.Paths)
	}
	names := map[string]bool{}
	unique := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if names[n] {
			t.Errorf("name %q used twice", n)
		}
		names[n] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q %q, table has %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(bf.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range bf.EndToEnd {
		unique(m.Name)
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end %d: %+v, table has %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end %q: bound %g unit %q", m.Name, m.Bound, m.Unit)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table, limit 128", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		unique(m.Name)
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: %+v, table has %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %q: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// Every profile bucket must be a per-layer metric, or its share is lost.
func TestCPUBucketsAreMetrics(t *testing.T) {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
	}
	for _, b := range cpuBuckets {
		if !known[b.metric] {
			t.Errorf("bucket %q feeds %q, which is not a per-layer metric", b.prefix, b.metric)
		}
	}
	for fn, want := range map[string]string{
		"gendt/internal/nn.ModulateF32":       "cpu.modulate_share",
		"gendt/internal/nn.gemvColAsm":        "cpu.nn_share",
		"gendt/internal/core.(*Model).Freeze": "cpu.core_share",
		"math/rand.(*Rand).Float64":           "cpu.rand_share",
		"encoding/json.(*encodeState).string": "cpu.json_share",
		"strconv.AppendFloat":                 "cpu.json_share",
		"net/http.(*conn).serve":              "cpu.http_share",
		"runtime.mallocgc":                    "cpu.runtime_share",
		"gendt/internal/nn.Renamed":           "cpu.nn_share",
		"some/new/pkg.Func":                   "cpu.other_share",
	} {
		if got := cpuBucket(fn); got != want {
			t.Errorf("%s falls into %s, want %s", fn, got, want)
		}
	}
}

func TestProfileDecodes(t *testing.T) {
	sink := 0.0
	shares, err := profileCPU(func() {
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			for i := 0; i < 1000; i++ {
				sink += math.Sqrt(float64(i))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-100) > 1e-6 {
		t.Errorf("shares sum to %g (sink %g): %v", total, sink, shares)
	}
	// The busy loop lives in this package, which no bucket names.
	if shares["cpu.other_share"] < 50 {
		t.Errorf("busy loop should land in cpu.other_share: %v", shares)
	}
}

func TestReportEndsWithTheResultObject(t *testing.T) {
	var buf bytes.Buffer
	res := result{correct: true, attempted: 7, metrics: values{"setup_s": 1.5, "steps_per_s": 10, "p50_ms": 2, "tail_ms": 3, "extra": 9}}
	if err := writeReport(&buf, res, endToEnd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("result object has keys %v, want exactly correct, attempted, failed, metrics", got)
	}
	var metrics map[string]jsonMetric
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) || metrics["setup_s"] != (jsonMetric{1.5, "s"}) {
		t.Errorf("metrics %v", metrics)
	}
}

// smallGenerator is an untrained Hidden=8 model frozen to f32: verification
// checks paths against each other, not quality, so it need not be trained.
func smallGenerator(t *testing.T) (*dataset.Dataset, *core.InferModel) {
	t.Helper()
	ds, err := dataset.NewByName(worldName, dataset.Spec{Seed: worldSeed, Scale: worldScale})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fixtureConfig()
	cfg.Hidden = 8
	gen, err := core.NewModel(cfg).Freeze(core.PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	return ds, gen
}

func TestCorruptedResponseFailsVerification(t *testing.T) {
	ds, gen := smallGenerator(t)
	srv := serve.New(serve.Options{Registry: serve.NewStaticRegistry(modelName, gen), World: serve.NewWorldFrom(ds)})
	defer srv.Close()
	routes, err := cutRoutes(ds, rand.New(rand.NewSource(1)), 1, 24)
	if err != nil {
		t.Fatal(err)
	}
	world := serve.NewWorldFrom(ds)
	for _, samples := range []int{1, 8} {
		const seed = 77
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, serve.EndpointGenerate,
			bytes.NewReader(requestBody(seed, samples, routes[0]))))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		body := rec.Body.Bytes()
		if err := verifyResponse(gen, world, routes[0].traj, seed, samples, body); err != nil {
			t.Fatalf("%d samples: a true response failed verification: %v", samples, err)
		}

		var resp serve.GenerateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		corrupt := func(name string, change func(r *serve.GenerateResponse)) {
			var r serve.GenerateResponse
			if err := json.Unmarshal(body, &r); err != nil { // a deep copy
				t.Fatal(err)
			}
			change(&r)
			bad, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if verifyResponse(gen, world, routes[0].traj, seed, samples, bad) == nil {
				t.Errorf("%d samples: %s went unnoticed", samples, name)
			}
		}
		corrupt("one value off by one ulp", func(r *serve.GenerateResponse) {
			r.Series[2][5] = math.Nextafter(r.Series[2][5], math.Inf(1))
		})
		corrupt("a NaN-free but truncated series", func(r *serve.GenerateResponse) { r.Series[0] = r.Series[0][:23] })
		corrupt("the wrong step count", func(r *serve.GenerateResponse) { r.Steps++ })
		corrupt("another seed's response", func(r *serve.GenerateResponse) { r.Seed++ })
		if samples > 1 {
			corrupt("an envelope minimum above the mean", func(r *serve.GenerateResponse) {
				r.Envelope.Min[1][3] = r.Envelope.Max[1][3] + 1
			})
			corrupt("a missing envelope", func(r *serve.GenerateResponse) { r.Envelope = nil })
		}
		if verifyResponse(gen, world, routes[0].traj, seed, samples, body[:len(body)/2]) == nil {
			t.Error("a truncated body went unnoticed")
		}
	}
}

func TestPerturbedBulkOutputFailsVerification(t *testing.T) {
	ds, gen := smallGenerator(t)
	seqs := core.PrepareAll(ds.Runs, gen.ModelConfig().Channels, gen.ModelConfig().MaxCells)
	w, err := runBulkWindow(gen.WithWorkers(2), seqs, 5, time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.calls() < 1 || len(w.kept) != w.calls() || w.steps[0] != float64(jobSteps(bulkJobs(seqs, 5, 0))) {
		t.Fatalf("window: %d calls, %d kept, %v steps", w.calls(), len(w.kept), w.steps)
	}
	if err := w.verify(gen); err != nil {
		t.Fatalf("true outputs failed verification: %v", err)
	}
	v := &w.kept[0].out[1][7]
	*v = math.Nextafter(*v, math.Inf(-1))
	if w.verify(gen) == nil {
		t.Error("an output one ulp off went unnoticed")
	}
	*v = math.NaN()
	if w.verify(gen) == nil {
		t.Error("a NaN went unnoticed")
	}
}

func TestLaneFill(t *testing.T) {
	seq := func(n int) *core.Sequence { return &core.Sequence{KPIs: make([][]float64, n)} }
	jobs := []core.GenJob{{Seq: seq(10)}, {Seq: seq(10)}, {Seq: seq(5)}, {Seq: seq(20)}}
	// Chunks of 2: (10,10) steps 20 slots for 20 useful; (5,20) steps 40 for 25.
	if got, want := laneFill(jobs, 2), 45.0/60.0; got != want {
		t.Errorf("lane fill %g, want %g", got, want)
	}
}

func TestAgreementRule(t *testing.T) {
	m := metricSpec{"p50_ms", "ms", "lower", 0.10}
	steady := []float64{10, 10.1, 10.2, 10.1, 10}
	if v := agreement(m, steady, steady); v != "ok" {
		t.Errorf("equal sets: %s", v)
	}
	if v := agreement(m, steady, []float64{11.3, 11.4, 11.3, 11.5, 11.4}); v == "ok" {
		t.Error("a second set 12 % slower agreed")
	}
	if v := agreement(m, steady, []float64{9, 9.1, 9, 9.1, 9}); v != "ok" {
		t.Errorf("a faster second set: %s", v)
	}
	if v := agreement(m, steady, []float64{8, 10, 12, 9, 11}); v == "ok" {
		t.Error("a spread of 30 % agreed")
	}
	up := metricSpec{"steps_per_s", "1/s", "higher", 0.10}
	if v := agreement(up, steady, []float64{8.8, 8.9, 8.8, 8.9, 8.8}); v == "ok" {
		t.Error("a throughput 12 % lower agreed")
	}
	setup := metricSpec{"setup_s", "s", "lower", 0.25}
	if v := agreement(setup, []float64{1, 2, 3, 2, 1}, []float64{2, 1, 3, 2, 1}); v != "ok" {
		t.Errorf("setup_s is exempt from the spread rule: %s", v)
	}
}
