package loadgen

import (
	"fmt"
	"time"

	"gendt/internal/serve"
)

// Report is the machine-readable result of one replay window — the
// document gendt-bench emits.
type Report struct {
	Name       string  `json:"name,omitempty"`
	Target     string  `json:"target"`
	Arrival    string  `json:"arrival"`
	OfferedRPS float64 `json:"offered_rps"`
	DurationS  float64 `json:"duration_s"`
	WarmupS    float64 `json:"warmup_s"`
	Routes     int     `json:"routes"`
	Samples    int     `json:"samples"`

	Sent         int `json:"sent"`
	Warmup       int `json:"warmup_requests"`
	WarmupErrors int `json:"warmup_errors"`
	Measured     int `json:"measured"`
	Succeeded    int `json:"succeeded"`
	Errors       int `json:"errors"`

	AchievedRPS float64 `json:"achieved_rps"`
	SuccessRate float64 `json:"success_rate"`
	ErrorRate   float64 `json:"error_rate"`

	// Status counts responses by HTTP code ("net" = transport error);
	// Reasons breaks 503s down by X-Gendt-Reason (draining/shed/upstream).
	Status  map[string]int `json:"status"`
	Reasons map[string]int `json:"reasons,omitempty"`

	LatencyMs LatencyStats `json:"latency_ms"`

	// BatchSizeHist is the delta of the target's realized-batch-size
	// histogram (/debug/vars generate.batch_size_hist) across the replay
	// window: how many requests each GenerateJobs call coalesced under this
	// offered load. Omitted when the target does not expose it (a gendt-lb
	// front) or no batch executed.
	BatchSizeHist *serve.SizeHistogramSnap `json:"batch_size_hist,omitempty"`
}

// Saturation describes the knee found by a sweep.
type Saturation struct {
	Found bool `json:"found"`
	// KneeRPS is the lowest offered rate that violated the sweep's
	// error-rate or achieved-throughput bounds.
	KneeRPS float64 `json:"knee_rps,omitempty"`
	Reason  string  `json:"reason,omitempty"`
	// MaxGoodRPS is the highest offered rate that stayed within bounds.
	MaxGoodRPS float64 `json:"max_good_rps"`
}

// SweepReport is the result of an RPS sweep: one report per offered rate
// plus the detected saturation knee.
type SweepReport struct {
	Reports    []Report   `json:"reports"`
	Saturation Saturation `json:"saturation"`
}

// Sweep bounds: a rate saturates the tier when more than KneeErrorRate of
// measured requests fail or achieved throughput falls below
// KneeAchievedFrac of offered.
const (
	KneeErrorRate    = 0.01
	KneeAchievedFrac = 0.9
)

// Sweep replays the trace at each offered rate in turn and locates the
// saturation knee. Rates after the first saturated one still run — the
// shape of the over-saturation region is part of the capacity trajectory.
func Sweep(cfg RunConfig, trace *Trace, rates []float64) (SweepReport, error) {
	var sweep SweepReport
	for _, rps := range rates {
		c := cfg
		c.RPS = rps
		if cfg.Name != "" {
			c.Name = fmt.Sprintf("%s-rps%g", cfg.Name, rps)
		}
		rep, err := Run(c, trace)
		if err != nil {
			return sweep, err
		}
		sweep.Reports = append(sweep.Reports, rep)
		saturated := rep.ErrorRate > KneeErrorRate || rep.AchievedRPS < KneeAchievedFrac*rps
		if saturated && !sweep.Saturation.Found {
			sweep.Saturation.Found = true
			sweep.Saturation.KneeRPS = rps
			if rep.ErrorRate > KneeErrorRate {
				sweep.Saturation.Reason = fmt.Sprintf("error rate %.3f > %.3f", rep.ErrorRate, KneeErrorRate)
			} else {
				sweep.Saturation.Reason = fmt.Sprintf("achieved %.1f rps < %.0f%% of offered %.1f",
					rep.AchievedRPS, KneeAchievedFrac*100, rps)
			}
		}
		if !saturated {
			sweep.Saturation.MaxGoodRPS = rps
		}
	}
	return sweep, nil
}

// Verify sends the same seeded requests to two serving endpoints (a
// gendt-lb and a direct replica, typically) and requires bit-identical
// generation results: same seed, channels, step count, and float-exact
// series/envelope. Timing fields (gen_ms, prep_cached) are excluded — they
// legitimately differ per hit. n bounds the verified routes.
func Verify(target, direct string, trace *Trace, n int, timeout time.Duration) error {
	if n <= 0 || n > trace.Routes() {
		n = trace.Routes()
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	client := newClient(timeout)
	defer client.CloseIdleConnections()
	for r := 0; r < n; r++ {
		seed := requestSeed(trace.spec.RNGSeed, 1_000_000+r)
		req := trace.RouteRequest(r, seed)
		a, err := serve.PostGenerate(client, target, req)
		if err != nil {
			return fmt.Errorf("verify route %d via %s: %w", r, target, err)
		}
		b, err := serve.PostGenerate(client, direct, req)
		if err != nil {
			return fmt.Errorf("verify route %d via %s: %w", r, direct, err)
		}
		if err := sameGeneration(a, b); err != nil {
			return fmt.Errorf("route %d seed %d: %s vs %s: %w", r, seed, target, direct, err)
		}
	}
	return nil
}

// sameGeneration compares the deterministic fields of two generate
// responses for exact equality.
func sameGeneration(a, b *serve.GenerateResponse) error {
	if a.Seed != b.Seed {
		return fmt.Errorf("seed %d != %d", a.Seed, b.Seed)
	}
	if a.Steps != b.Steps {
		return fmt.Errorf("steps %d != %d", a.Steps, b.Steps)
	}
	if len(a.Channels) != len(b.Channels) {
		return fmt.Errorf("channel count %d != %d", len(a.Channels), len(b.Channels))
	}
	for i := range a.Channels {
		if a.Channels[i] != b.Channels[i] {
			return fmt.Errorf("channel %d: %q != %q", i, a.Channels[i], b.Channels[i])
		}
	}
	if err := sameSeries("series", a.Series, b.Series); err != nil {
		return err
	}
	switch {
	case a.Envelope == nil && b.Envelope == nil:
	case a.Envelope == nil || b.Envelope == nil:
		return fmt.Errorf("envelope present on one side only")
	default:
		if err := sameSeries("envelope.min", a.Envelope.Min, b.Envelope.Min); err != nil {
			return err
		}
		if err := sameSeries("envelope.max", a.Envelope.Max, b.Envelope.Max); err != nil {
			return err
		}
		if err := sameSeries("envelope.mean", a.Envelope.Mean, b.Envelope.Mean); err != nil {
			return err
		}
	}
	return nil
}

func sameSeries(what string, a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d channels != %d", what, len(a), len(b))
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return fmt.Errorf("%s[%d]: %d steps != %d", what, c, len(a[c]), len(b[c]))
		}
		for t := range a[c] {
			if a[c][t] != b[c][t] {
				return fmt.Errorf("%s[%d][%d]: %v != %v", what, c, t, a[c][t], b[c][t])
			}
		}
	}
	return nil
}
