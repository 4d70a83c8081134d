package validate

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/serve"
)

// fixture: one tiny trained model over a small Dataset A world, built once
// per test binary (training even a tiny model dominates test time).
var fix struct {
	once sync.Once
	ds   *dataset.Dataset
	m    *core.Model
}

var fixSpec = dataset.Spec{Seed: 11, Scale: 0.015}

func fixCfg() core.Config {
	return core.Config{
		Channels: core.RSRPRSRQChannels(),
		Hidden:   10, NoiseDim: 2, ResNoise: 2, Lags: 2,
		BatchLen: 12, StepLen: 6, MaxCells: 6,
		Epochs: 1, Seed: 1, Workers: 1,
	}
}

func setup(t *testing.T) (*dataset.Dataset, *core.Model) {
	t.Helper()
	fix.once.Do(func() {
		fix.ds = dataset.NewDatasetA(fixSpec)
		train := core.PrepareAll(fix.ds.TrainRuns(), core.RSRPRSRQChannels(), 6)
		fix.m = core.NewModel(fixCfg())
		fix.m.Train(train, nil)
	})
	return fix.ds, fix.m
}

// fixOpts keeps runs small: two short routes, one sample each.
func fixOpts(ds *dataset.Dataset) Options {
	return Options{Dataset: ds, Routes: 2, SamplesPerRoute: 1, MaxRouteLen: 60, Seed: 3, Workers: 2}
}

// replica serves g over /v1/generate on a loopback server, registered as
// "gendt", with its own resident copy of ds's world, and returns its URL.
func replica(t *testing.T, ds *dataset.Dataset, g core.Generator) string {
	t.Helper()
	srv := serve.New(serve.Options{
		Registry: serve.NewStaticRegistry("gendt", g),
		World:    serve.NewWorldFrom(ds),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return ts.URL
}

// find returns the named check of a report.
func find(rep *Report, name string) (CheckResult, bool) {
	for _, c := range rep.Checks {
		if c.Name == name {
			return c, true
		}
	}
	return CheckResult{}, false
}

// TestObserveDeriveGate is the golden lifecycle: an observe-only run
// derives tolerances, and a gated run against those tolerances passes with
// every check accounted for.
func TestObserveDeriveGate(t *testing.T) {
	ds, m := setup(t)
	opts := fixOpts(ds)

	observe, err := Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !observe.OK() {
		t.Fatalf("observe-only run failed:\n%s", observe)
	}
	if len(observe.Observed) != len(m.Cfg.Channels) {
		t.Fatalf("observed stats for %d channels, want %d", len(observe.Observed), len(m.Cfg.Channels))
	}

	opts.Golden = observe.DeriveGolden(opts)
	rep, err := Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("gated run failed:\n%s", rep)
	}
	// Every distributional gate must have actually run (not skipped) and
	// every metamorphic invariant must be present.
	want := []string{
		"dist/RSRP/ks", "dist/RSRP/hwd", "dist/RSRP/mean", "dist/RSRP/std", "dist/RSRP/autocorr",
		"dist/RSRQ/ks", "dist/RSRQ/hwd", "dist/RSRQ/mean", "dist/RSRQ/std", "dist/RSRQ/autocorr",
		"meta/seed-determinism-serial", "meta/seed-determinism-workers", "meta/seed-determinism-http",
		"meta/permutation-invariance", "meta/truncation-consistency", "meta/monotonic-rsrp-distance",
	}
	got := map[string]CheckResult{}
	for _, c := range rep.Checks {
		got[c.Name] = c
	}
	for _, name := range want {
		c, ok := got[name]
		if !ok {
			t.Errorf("check %s missing from report", name)
			continue
		}
		if c.Skipped {
			t.Errorf("check %s skipped: %s", name, c.Detail)
		}
	}
	// No SINR channel on this model: the load check must be skipped, not
	// silently absent.
	if c, ok := got["meta/monotonic-sinr-load"]; !ok || !c.Skipped {
		t.Errorf("meta/monotonic-sinr-load: want skipped, got %+v", c)
	}
}

// TestRunDeterministic: the whole suite is a pure function of
// (model, dataset, options) — two runs render identical reports, against
// the loopback replica and against a target alike.
func TestRunDeterministic(t *testing.T) {
	ds, m := setup(t)
	for _, target := range []string{"", replica(t, ds, m)} {
		opts := fixOpts(ds)
		opts.Target = target
		a, err := Run(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Fatalf("target %q: reports differ:\n%s\nvs\n%s", target, ja, jb)
		}
	}
}

// TestCorruptedModelFails is the gate-has-teeth property: noise-corrupted
// weights must trip at least one named distributional check against
// tolerances derived from the healthy model.
func TestCorruptedModelFails(t *testing.T) {
	ds, m := setup(t)
	opts := fixOpts(ds)

	observe, err := Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Golden = observe.DeriveGolden(opts)

	bad := m.Clone(1)
	bad.PerturbWeights(0.5, 99)
	rep, err := Run(bad, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("corrupted model passed the gate:\n%s", rep)
	}
	var distFail bool
	for _, c := range rep.Failures() {
		if strings.HasPrefix(c.Name, "dist/") {
			distFail = true
		}
	}
	if !distFail {
		t.Fatalf("no dist/ check failed for corrupted model:\n%s", rep)
	}
}

// TestGoldenRoundTrip: Save/Load preserves the tolerances and repeated
// derivation is byte-stable.
func TestGoldenRoundTrip(t *testing.T) {
	ds, m := setup(t)
	opts := fixOpts(ds)
	rep, err := Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := rep.DeriveGolden(opts)
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(g)
	jb, _ := json.Marshal(loaded)
	if string(ja) != string(jb) {
		t.Fatalf("golden round-trip changed content:\n%s\nvs\n%s", ja, jb)
	}

	// Re-deriving from a fresh identical run yields identical bytes.
	rep2, err := Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(t.TempDir(), "golden2.json")
	if err := rep2.DeriveGolden(opts).Save(path2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if string(b1) != string(b2) {
		t.Fatalf("golden derivation not byte-stable:\n%s\nvs\n%s", b1, b2)
	}
}

// TestGoldenDatasetMismatch: tolerances derived under one dataset, route
// count, sample count or seed must not silently gate a run under another,
// and the failure names the field that differs.
func TestGoldenDatasetMismatch(t *testing.T) {
	ds, m := setup(t)
	opts := fixOpts(ds)
	rep, err := Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field  string
		mutate func(*Golden)
	}{
		{"dataset", func(g *Golden) { g.Dataset = "B" }},
		{"routes", func(g *Golden) { g.Routes++ }},
		{"samples_per_route", func(g *Golden) { g.SamplesPerRoute++ }},
		{"seed", func(g *Golden) { g.Seed++ }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			g := rep.DeriveGolden(opts)
			tc.mutate(g)
			o := opts
			o.Golden = g
			got, err := Run(m, o)
			if err != nil {
				t.Fatal(err)
			}
			c, ok := find(got, "dist/golden-config")
			if !ok || c.Passed {
				t.Fatalf("%s mismatch not flagged:\n%s", tc.field, got)
			}
			if !strings.HasPrefix(c.Detail, tc.field+":") {
				t.Fatalf("detail %q does not name %s", c.Detail, tc.field)
			}
		})
	}
}

// TestLoadAwareSINRCheck trains a minimal load-aware model with a SINR
// channel and asserts the load-monotonicity invariant actually runs (and
// holds) for it.
func TestLoadAwareSINRCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an extra model")
	}
	ds, _ := setup(t)
	cfg := fixCfg()
	cfg.Channels = core.StandardChannels()
	cfg.LoadAware = true
	var train []*core.Sequence
	for _, run := range ds.TrainRuns() {
		train = append(train, core.PrepareSequenceWith(run, cfg.Channels, core.PrepareOptions{
			MaxCells: cfg.MaxCells, LoadAware: true,
		}))
	}
	m := core.NewModel(cfg)
	m.Train(train, nil)

	opts := fixOpts(ds)
	rep, err := Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := find(rep, "meta/monotonic-sinr-load")
	if !ok {
		t.Fatalf("meta/monotonic-sinr-load missing:\n%s", rep)
	}
	if c.Skipped {
		t.Fatalf("meta/monotonic-sinr-load skipped for load-aware model: %s", c.Detail)
	}
	if !c.Passed {
		t.Fatalf("meta/monotonic-sinr-load failed: %s", c)
	}
}

// TestBatchedEngineIdentityCheck: the batched-engine invariant must run
// (not skip) for frozen backends and pass, and must skip for the live f64
// model, which has no batched engine.
func TestBatchedEngineIdentityCheck(t *testing.T) {
	ds, m := setup(t)
	for _, p := range []core.Precision{core.PrecisionF32, core.PrecisionInt8} {
		im, err := m.Freeze(p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(im, fixOpts(ds))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%s: frozen backend failed:\n%s", p, rep)
		}
		c, ok := find(rep, "meta/batched-engine-identity")
		if !ok {
			t.Fatalf("%s: meta/batched-engine-identity missing:\n%s", p, rep)
		}
		if c.Skipped {
			t.Fatalf("%s: skipped for frozen backend: %s", p, c.Detail)
		}
		if !c.Passed {
			t.Fatalf("%s: failed: %s", p, c)
		}
	}
	rep, err := Run(m, fixOpts(ds))
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := find(rep, "meta/batched-engine-identity"); !ok || !c.Skipped {
		t.Fatalf("f64: want skipped check, got %+v", c)
	}
}

// TestServedTarget runs the gate with Target set to a replica: it passes
// only when the replica serves the generator under validation, bit for
// bit, and a replica that is down is a failed check, not a setup error.
func TestServedTarget(t *testing.T) {
	ds, m := setup(t)
	perturbed := m.Clone(1)
	perturbed.PerturbWeights(0.02, 5)
	f32, err := m.Freeze(core.PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer down.Close()

	for _, tc := range []struct {
		name   string
		target string
		want   string // "" passes; otherwise the served check's detail contains it
	}{
		{"candidate", replica(t, ds, m), ""},
		{"perturbed weights", replica(t, ds, perturbed), "serves a different model"},
		{"f32 replica of an f64 candidate", replica(t, ds, f32), "serves a different model"},
		{"503", down.URL, "status 503"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := fixOpts(ds)
			opts.Target, opts.TargetModel = tc.target, "gendt"
			rep, err := Run(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			c, ok := find(rep, "meta/seed-determinism-http")
			if !ok {
				t.Fatalf("served check missing:\n%s", rep)
			}
			if !strings.Contains(c.Detail, tc.target) {
				t.Errorf("detail %q does not name the target", c.Detail)
			}
			if tc.want == "" {
				if !rep.OK() {
					t.Fatalf("replica of the candidate failed:\n%s", rep)
				}
				return
			}
			if c.Passed || !strings.Contains(c.Detail, tc.want) {
				t.Fatalf("want a failed served check naming %q, got %s", tc.want, c)
			}
			if fails := rep.Failures(); len(fails) != 1 {
				t.Fatalf("want only the served check to fail, got:\n%s", rep)
			}
		})
	}
}
