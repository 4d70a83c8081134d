package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/serve"
)

// syntheticTrace builds a trace without a dataset world — white-box tests
// exercise the replay machinery, not world synthesis.
func syntheticTrace(routes int) *Trace {
	spec := TraceSpec{Samples: 1, RNGSeed: 9}.withDefaults()
	t := &Trace{spec: spec}
	for r := 0; r < routes; r++ {
		t.routes = append(t.routes, []serve.RoutePoint{
			{T: 0, Lat: 48 + float64(r)*0.01, Lon: 16},
			{T: 1, Lat: 48 + float64(r)*0.01, Lon: 16.001},
		})
	}
	return t
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {99, 10}, {99.9, 10}, {10, 1}}
	for _, c := range cases {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample p50 = %g, want 0", got)
	}
}

func TestLatencyStats(t *testing.T) {
	s := latencyStats([]float64{4, 1, 3, 2})
	if s.Count != 4 || s.P50 != 2 || s.Max != 4 || s.Mean != 2.5 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRequestSeedsDistinctAndDeterministic(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 10000; i++ {
		s := requestSeed(42, i)
		if s == 0 {
			t.Fatalf("request %d drew seed 0 (server would replace it)", i)
		}
		if seen[s] {
			t.Fatalf("request %d repeats seed %d", i, s)
		}
		seen[s] = true
		if s != requestSeed(42, i) {
			t.Fatalf("request %d seed not deterministic", i)
		}
	}
}

func TestTraceRequestsDeterministic(t *testing.T) {
	a, b := syntheticTrace(4), syntheticTrace(4)
	for i := 0; i < 12; i++ {
		ra, err := a.Request(i)
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := b.Request(i)
		if !bytes.Equal(ra, rb) {
			t.Fatalf("request %d differs between identical traces", i)
		}
		var req serve.GenerateRequest
		if err := json.Unmarshal(ra, &req); err != nil {
			t.Fatal(err)
		}
		if req.Seed == 0 || len(req.Route) != 2 {
			t.Fatalf("request %d malformed: %+v", i, req)
		}
	}
}

// BuildTrace must be a pure function of its world and spec, and its routes
// must come from that world.
func TestBuildTraceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a dataset world")
	}
	d := dataset.NewDatasetA(dataset.Spec{Scale: 0.015, Seed: 11})
	spec := TraceSpec{Routes: 3, Steps: 20, RNGSeed: 5}
	a, err := BuildTrace(d, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildTrace(d, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Routes() != 3 {
		t.Fatalf("routes = %d, want 3", a.Routes())
	}
	for i := 0; i < 6; i++ {
		ra, _ := a.Request(i)
		rb, _ := b.Request(i)
		if !bytes.Equal(ra, rb) {
			t.Fatalf("request %d differs across identical BuildTrace calls", i)
		}
	}
	var req serve.GenerateRequest
	raw, _ := a.Request(0)
	if err := json.Unmarshal(raw, &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Route) != 20 {
		t.Fatalf("route truncation: got %d points, want 20", len(req.Route))
	}
}

func TestRunOpenLoopAgainstHealthyServer(t *testing.T) {
	var served sync.Map
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.GenerateRequest
		json.NewDecoder(r.Body).Decode(&req)
		served.Store(req.Seed, true)
		fmt.Fprint(w, `{"model":"m"}`)
	}))
	defer srv.Close()

	trace := syntheticTrace(4)
	rep, err := Run(RunConfig{
		Target: srv.URL, RPS: 100, Duration: 500 * time.Millisecond,
		Warmup: 100 * time.Millisecond, Arrival: ArrivalFixed, Name: "t",
	}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent < 40 || rep.Sent > 60 {
		t.Errorf("sent %d requests at fixed 100rps over 500ms; want ~51", rep.Sent)
	}
	if rep.Errors != 0 || rep.SuccessRate != 1 {
		t.Errorf("errors %d success rate %g; want clean run", rep.Errors, rep.SuccessRate)
	}
	if rep.Measured+rep.Warmup != rep.Sent {
		t.Errorf("measured %d + warmup %d != sent %d", rep.Measured, rep.Warmup, rep.Sent)
	}
	if rep.Warmup == 0 {
		t.Error("warmup window excluded no requests")
	}
	if rep.Status["200"] != rep.Measured {
		t.Errorf("status map %v inconsistent with measured %d", rep.Status, rep.Measured)
	}
	if rep.LatencyMs.Count != rep.Succeeded || rep.LatencyMs.P99 < rep.LatencyMs.P50 {
		t.Errorf("latency stats inconsistent: %+v", rep.LatencyMs)
	}
	if rep.AchievedRPS <= 0 {
		t.Error("achieved rps not computed")
	}
}

func TestRunBreaksDownReasons(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(serve.ReasonHeader, serve.ReasonShed)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	rep, err := Run(RunConfig{
		Target: srv.URL, RPS: 50, Duration: 300 * time.Millisecond, Arrival: ArrivalFixed,
	}, syntheticTrace(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ErrorRate != 1 {
		t.Fatalf("error rate %g, want 1", rep.ErrorRate)
	}
	if rep.Reasons[serve.ReasonShed] != rep.Measured {
		t.Fatalf("reasons %v inconsistent with measured %d", rep.Reasons, rep.Measured)
	}
	if rep.Status["503"] != rep.Measured {
		t.Fatalf("status %v, want all 503", rep.Status)
	}
}

func TestRunCountsTransportErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // all requests now fail to connect

	rep, err := Run(RunConfig{
		Target: srv.URL, RPS: 50, Duration: 200 * time.Millisecond, Arrival: ArrivalFixed,
	}, syntheticTrace(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status["net"] != rep.Measured || rep.ErrorRate != 1 {
		t.Fatalf("transport errors not counted: %+v", rep)
	}
}

func TestSweepFindsKnee(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{}`)
	}))
	defer healthy.Close()

	sw, err := Sweep(RunConfig{
		Target: healthy.URL, Duration: 200 * time.Millisecond, Arrival: ArrivalFixed, Name: "s",
	}, syntheticTrace(2), []float64{20, 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Reports) != 2 || sw.Saturation.Found {
		t.Fatalf("healthy sweep: %+v", sw.Saturation)
	}
	if sw.Saturation.MaxGoodRPS != 40 {
		t.Fatalf("max good rps %g, want 40", sw.Saturation.MaxGoodRPS)
	}
	if sw.Reports[0].Name != "s-rps20" {
		t.Fatalf("report name %q", sw.Reports[0].Name)
	}

	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer failing.Close()
	sw, err = Sweep(RunConfig{
		Target: failing.URL, Duration: 200 * time.Millisecond, Arrival: ArrivalFixed,
	}, syntheticTrace(2), []float64{20, 40})
	if err != nil {
		t.Fatal(err)
	}
	if !sw.Saturation.Found || sw.Saturation.KneeRPS != 20 {
		t.Fatalf("failing sweep missed the knee: %+v", sw.Saturation)
	}
}

// cannedGenerate serves a fixed GenerateResponse, optionally perturbed.
func cannedGenerate(t *testing.T, perturb float64) *httptest.Server {
	t.Helper()
	resp := serve.GenerateResponse{
		Model: "m", Seed: 1, Samples: 1, Channels: []string{"rsrp"},
		Steps: 3, Series: [][]float64{{-80, -81 + perturb, -82}},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.GenerateRequest
		json.NewDecoder(r.Body).Decode(&req)
		out := resp
		out.Seed = req.Seed // echo like the real server
		json.NewEncoder(w).Encode(out)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestVerifyBitIdentity(t *testing.T) {
	same1, same2 := cannedGenerate(t, 0), cannedGenerate(t, 0)
	trace := syntheticTrace(2)
	if err := Verify(same1.URL, same2.URL, trace, 2, time.Second); err != nil {
		t.Fatalf("identical servers failed verify: %v", err)
	}
	differs := cannedGenerate(t, 1e-12)
	if err := Verify(same1.URL, differs.URL, trace, 2, time.Second); err == nil {
		t.Fatal("verify accepted a 1e-12 series perturbation")
	}
}

func TestRunRejectsUnknownArrival(t *testing.T) {
	if _, err := Run(RunConfig{Target: "http://127.0.0.1:0", Arrival: "uniform"}, syntheticTrace(1)); err == nil {
		t.Fatal("unknown arrival process accepted")
	}
}

// engineStub is a core.Generator that takes a fixed time per GenerateJobs
// call, whatever the batch: the shape of an engine whose lanes are free.
type engineStub struct {
	core.Generator // the methods serving never calls stay nil
	engine         time.Duration
	series         [][]float64
}

func (g engineStub) ModelConfig() core.Config {
	return core.Config{Channels: core.RSRPRSRQChannels(), MaxCells: 6}
}

func (g engineStub) GenerateJobs(jobs []core.GenJob) [][][]float64 {
	time.Sleep(g.engine)
	outs := make([][][]float64, len(jobs))
	for i := range outs {
		outs[i] = g.series
	}
	return outs
}

// TestBurstyReplayCoalescesWithoutHolding replays a bursty trace against a
// real replica whose engine takes 30 ms a call, so nearly every request lands
// while a batch is in flight. Such requests must leave together (mean batch
// above one request), and each waits for the one batch ahead of it and no
// more: the stage histogram's 50 ms bucket is the first edge above one engine
// call, which also absorbs a slow sleep on a busy machine. A request that sat
// out a second batch would show at 60 ms or later.
func TestBurstyReplayCoalescesWithoutHolding(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a dataset world")
	}
	const engine, edgeMs = 30 * time.Millisecond, 50
	d := dataset.NewDatasetA(dataset.Spec{Scale: 0.015, Seed: 11})
	s := serve.New(serve.Options{
		Registry: serve.NewStaticRegistry("stub", engineStub{engine: engine, series: [][]float64{{1, 2}, {3, 4}}}),
		World:    serve.NewWorldFrom(d),
	})
	srv := httptest.NewServer(s.Handler())
	defer func() {
		srv.Close()
		s.Close()
	}()
	trace, err := BuildTrace(d, TraceSpec{Routes: 4, Steps: 20, RNGSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(RunConfig{Target: srv.URL, RPS: 255, Duration: time.Second, Arrival: ArrivalBursty}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Sent < 100 {
		t.Fatalf("sent %d, %d errors: %+v", rep.Sent, rep.Errors, rep.Status)
	}
	if rep.BatchSizeHist == nil || rep.BatchSizeHist.Mean <= 1 {
		t.Fatalf("bursts did not coalesce: batch sizes %+v", rep.BatchSizeHist)
	}
	queue := s.Metrics().Stages[serve.StageQueue].Snapshot()
	if queue.Count != int64(rep.Sent) {
		t.Fatalf("%d queue observations for %d requests", queue.Count, rep.Sent)
	}
	t.Logf("batch sizes %+v, queue %+v", rep.BatchSizeHist, queue)
	if worst := queue.Quantile(1); worst > edgeMs {
		t.Fatalf("a request queued into the %v ms bucket; one %v engine call bounds it: %+v", worst, engine, queue.Buckets)
	}
}
