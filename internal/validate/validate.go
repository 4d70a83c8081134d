// Package validate is the statistical model-quality gate between "trains
// without crashing" and "safe to serve". The repo's other tests check that
// code runs; this subsystem checks that a trained model is statistically
// right, in two complementary families:
//
//   - Distributional gates compare generated KPI series against simulator
//     ground truth on held-out routes — per-channel KS distance, histogram
//     Wasserstein distance, mean/std deltas, and lag-k autocorrelation
//     error — versus a committed golden tolerance file (validate/golden/).
//
//   - Metamorphic invariants need no ground truth at all: seed determinism
//     across the serial and Workers=N paths, sample-permutation
//     invariance, truncation consistency, and physical monotonicity
//     (closer to the serving cell must not lower mean RSRP; more load must
//     not raise SINR).
//
//   - One served check replays every request the two families above made
//     on the serving path against a /v1/generate endpoint — a live replica
//     or a loopback one — and requires the generator's own answers, bit
//     for bit. A replica passes by being the candidate.
//
// cmd/gendt-validate drives the suite from the command line, and the
// statistical-gate CI job proves it has teeth by also running it against a
// deliberately noise-corrupted model and asserting it fails.
package validate

import (
	"fmt"
	"strings"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/serve"
)

// Options configures a validation run. Zero fields take the defaults
// below; Dataset is required.
type Options struct {
	// Dataset supplies the held-out routes, the simulator ground truth,
	// and the resident world the HTTP check serves against.
	Dataset *dataset.Dataset

	// Routes caps how many held-out (test-split) routes the distributional
	// pass generates. Default 4.
	Routes int
	// SamplesPerRoute is how many independent generation samples per route
	// are pooled into the generated distribution. Default 2.
	SamplesPerRoute int
	// MaxRouteLen truncates each held-out route to this many samples so the
	// gate stays fast on large datasets. Default 150; negative disables.
	MaxRouteLen int
	// Seed drives every generation in the suite; the whole run is a pure
	// function of (model, dataset, options). Default 1.
	Seed int64
	// Workers is the parallel width the Workers=N determinism check runs
	// at. Default 4.
	Workers int

	// Target is the base URL of the /v1/generate endpoint the served check
	// replays the gate's requests against, e.g. http://127.0.0.1:18081 — a
	// replica that should be serving the generator under validation. Empty
	// starts a loopback replica of that generator.
	Target string
	// TargetModel is the registered model name on Target; empty uses the
	// replica's single-model default.
	TargetModel string

	// Golden holds the distributional tolerances. Nil runs the
	// distributional pass observe-only (checks report as skipped), which is
	// how -update-golden bootstraps a tolerance file.
	Golden *Golden

	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Routes <= 0 {
		o.Routes = 4
	}
	if o.SamplesPerRoute <= 0 {
		o.SamplesPerRoute = 2
	}
	if o.MaxRouteLen == 0 {
		o.MaxRouteLen = 150
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// CheckResult is the outcome of one named check.
type CheckResult struct {
	// Name identifies the check, e.g. "dist/RSRP/ks" or
	// "meta/seed-determinism-http".
	Name    string `json:"name"`
	Passed  bool   `json:"passed"`
	Skipped bool   `json:"skipped,omitempty"`
	// Observed and Limit are set for threshold checks (observed must be at
	// or below the limit).
	Observed float64 `json:"observed,omitempty"`
	Limit    float64 `json:"limit,omitempty"`
	Detail   string  `json:"detail,omitempty"`
}

// String renders one report line.
func (c CheckResult) String() string {
	status := "ok  "
	switch {
	case c.Skipped:
		status = "skip"
	case !c.Passed:
		status = "FAIL"
	}
	s := fmt.Sprintf("%s %-34s", status, c.Name)
	if c.Limit != 0 || c.Observed != 0 {
		s += fmt.Sprintf(" observed=%.4f limit=%.4f", c.Observed, c.Limit)
	}
	if c.Detail != "" {
		s += " (" + c.Detail + ")"
	}
	return s
}

// Report is the result of a full validation run.
type Report struct {
	Dataset  string        `json:"dataset"`
	Channels []string      `json:"channels"`
	Checks   []CheckResult `json:"checks"`
	// Observed carries the raw distributional statistics per channel (the
	// same shape as the golden tolerances), from which DeriveGolden builds
	// a tolerance file.
	Observed []ChannelStats `json:"observed"`
}

// OK reports whether every non-skipped check passed.
func (r *Report) OK() bool {
	for _, c := range r.Checks {
		if !c.Skipped && !c.Passed {
			return false
		}
	}
	return true
}

// Failures returns the failed checks.
func (r *Report) Failures() []CheckResult {
	var out []CheckResult
	for _, c := range r.Checks {
		if !c.Skipped && !c.Passed {
			out = append(out, c)
		}
	}
	return out
}

// String renders the full report, one line per check.
func (r *Report) String() string {
	var b strings.Builder
	for _, c := range r.Checks {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func (r *Report) add(c CheckResult) { r.Checks = append(r.Checks, c) }

func (r *Report) skip(name, why string) {
	r.add(CheckResult{Name: name, Skipped: true, Detail: why})
}

// Run executes the full validation suite against g, whatever its backend
// (a live *core.Model or a frozen *core.InferModel — the caller freezes).
// It has two parts: the distributional and metamorphic checks on g
// in-process, and one served check (meta/seed-determinism-http) that
// replays every route-level request the in-process part answered on the
// serving path against Options.Target, or a loopback replica of g, and
// requires each response to be bit-identical to g's own answer. The
// returned error covers only setup problems (nil dataset, no held-out
// routes); everything else — an unreachable or failing target included —
// is reported through the Report's checks so a single run always yields a
// full picture.
func Run(g core.Generator, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if opts.Dataset == nil {
		return nil, fmt.Errorf("validate: Options.Dataset is required")
	}
	cfg := g.ModelConfig()
	rep := &Report{Dataset: opts.Dataset.Name}
	for _, ch := range cfg.Channels {
		rep.Channels = append(rep.Channels, ch.Name)
	}

	routes, seqs, err := heldOutSequences(cfg, opts)
	if err != nil {
		return nil, err
	}
	minLen, maxLen := seqs[0].Len(), seqs[0].Len()
	for _, s := range seqs[1:] {
		if s.Len() < minLen {
			minLen = s.Len()
		}
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	opts.Logf("validate: %d held-out routes (%d..%d samples), %d samples/route",
		len(seqs), minLen, maxLen, opts.SamplesPerRoute)

	// The distributional pass generates on the serving path — the held-out
	// trajectories annotated by the resident world, exactly as a replica
	// prepares an HTTP request — so the served check can replay each of its
	// samples. Ground truth stays the recorded held-out KPIs.
	sp := &servingPath{g: g, world: serve.NewWorldFrom(opts.Dataset)}
	distributionChecks(sp, cfg.Channels, routes, seqs, opts, rep)
	metamorphicChecks(sp, routes, seqs, opts, rep)
	checkServed(sp, routes[0].Traj, opts, rep)
	return rep, nil
}

// heldOutSequences prepares up to opts.Routes test-split runs, truncated
// to opts.MaxRouteLen samples each.
func heldOutSequences(cfg core.Config, opts Options) ([]dataset.Run, []*core.Sequence, error) {
	runs := opts.Dataset.TestRuns()
	if len(runs) == 0 {
		return nil, nil, fmt.Errorf("validate: dataset %q has no held-out (test-split) runs", opts.Dataset.Name)
	}
	if len(runs) > opts.Routes {
		runs = runs[:opts.Routes]
	}
	out := make([]dataset.Run, 0, len(runs))
	seqs := make([]*core.Sequence, 0, len(runs))
	for _, run := range runs {
		if opts.MaxRouteLen > 0 && len(run.Meas) > opts.MaxRouteLen {
			run.Traj = run.Traj[:opts.MaxRouteLen]
			run.Meas = run.Meas[:opts.MaxRouteLen]
		}
		if len(run.Meas) < 2 {
			continue
		}
		seq := core.PrepareSequenceWith(run, cfg.Channels, core.PrepareOptions{
			MaxCells: cfg.MaxCells, LoadAware: cfg.LoadAware,
		})
		out = append(out, run)
		seqs = append(seqs, seq)
	}
	if len(seqs) == 0 {
		return nil, nil, fmt.Errorf("validate: no usable held-out routes after truncation")
	}
	return out, seqs, nil
}
