package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"gendt/internal/serve"
)

// Arrival processes.
const (
	ArrivalPoisson = "poisson" // exponential inter-arrival gaps (memoryless)
	ArrivalFixed   = "fixed"   // constant 1/RPS gaps
	// ArrivalBursty sends bursts of burstMin–burstMax requests inside
	// burstSpan, then silence. The gaps are drawn so the mean rate is RPS; at
	// 255 req/s they are 5–50 ms. The shape is a stand-in for replayed
	// what-if traffic, not fitted to a measured trace.
	ArrivalBursty = "bursty"
)

const (
	burstMin, burstMax = 2, 12
	burstSpan          = 200 * time.Microsecond
)

// RunConfig parameterizes one open-loop replay window.
type RunConfig struct {
	// Target is the base URL under test (a gendt-lb or a bare gendt-serve).
	Target string
	// RPS is the offered arrival rate.
	RPS float64
	// Duration is the arrival window; requests fired near the end are still
	// awaited after it closes.
	Duration time.Duration
	// Warmup excludes the initial span from the measured statistics (cold
	// prep caches and TCP setup dominate it).
	Warmup time.Duration
	// Arrival selects the arrival process; default Poisson.
	Arrival string
	// Timeout bounds each request.
	Timeout time.Duration
	// Name labels the report.
	Name string
}

func (c RunConfig) withDefaults() RunConfig {
	if c.RPS <= 0 {
		c.RPS = 10
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalPoisson
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// outcome is one completed request's measurement.
type outcome struct {
	offset  time.Duration // arrival offset from the window start
	latency time.Duration
	status  int    // 0 = transport error
	reason  string // X-Gendt-Reason value, or "net" on transport error
}

// Run replays the trace open-loop against cfg.Target: arrivals are
// scheduled by the configured process at cfg.RPS regardless of completions,
// each fired on its own goroutine. It returns the measured report.
func Run(cfg RunConfig, trace *Trace) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Arrival != ArrivalPoisson && cfg.Arrival != ArrivalFixed && cfg.Arrival != ArrivalBursty {
		return Report{}, fmt.Errorf("loadgen: unknown arrival process %q", cfg.Arrival)
	}
	client := newClient(cfg.Timeout)
	defer client.CloseIdleConnections()

	// Arrival gaps draw from their own deterministic stream so the offered
	// schedule is reproducible for a fixed trace seed.
	arrivalRNG := rand.New(rand.NewSource(trace.spec.RNGSeed ^ 0x5bf0_3635))
	var burstLeft int           // requests still to come in the current burst
	var burstStep time.Duration // and the gap between them
	nextGap := func() time.Duration {
		switch {
		case cfg.Arrival == ArrivalFixed:
			return time.Duration(float64(time.Second) / cfg.RPS)
		case cfg.Arrival == ArrivalPoisson:
			return time.Duration(arrivalRNG.ExpFloat64() / cfg.RPS * float64(time.Second))
		case burstLeft > 0:
			burstLeft--
			return burstStep
		}
		burstLeft = burstMin + arrivalRNG.Intn(burstMax-burstMin+1) - 1
		burstStep = burstSpan / time.Duration(burstLeft)
		period := float64(burstMin+burstMax) / 2 / cfg.RPS * float64(time.Second)
		return time.Duration((0.18 + 1.64*arrivalRNG.Float64()) * period)
	}

	// Snapshot the target's cumulative batch-size histogram around the
	// window so the report carries this run's coalescing behaviour.
	// Best-effort: a front tier without generation metrics yields nil.
	histBefore, _ := fetchBatchHist(client, cfg.Target)

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []outcome
	)
	record := func(o outcome) {
		mu.Lock()
		results = append(results, o)
		mu.Unlock()
	}

	start := time.Now()
	offset := time.Duration(0)
	sent := 0
	for offset <= cfg.Duration {
		if d := time.Until(start.Add(offset)); d > 0 {
			time.Sleep(d)
		}
		body, err := trace.Request(sent)
		if err != nil {
			return Report{}, err
		}
		wg.Add(1)
		go func(off time.Duration, body []byte) {
			defer wg.Done()
			record(fire(client, cfg.Target, off, body))
		}(offset, body)
		sent++
		offset += nextGap()
	}
	wg.Wait()

	rep := summarize(cfg, trace, results)
	if histBefore != nil {
		if histAfter, _ := fetchBatchHist(client, cfg.Target); histAfter != nil {
			if d := histAfter.Sub(*histBefore); d.Count > 0 {
				rep.BatchSizeHist = &d
			}
		}
	}
	return rep, nil
}

// fire issues one request and measures it.
func fire(client *http.Client, target string, off time.Duration, body []byte) outcome {
	t0 := time.Now()
	resp, err := client.Post(target+serve.EndpointGenerate, "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{offset: off, latency: time.Since(t0), status: 0, reason: "net"}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	o := outcome{offset: off, latency: time.Since(t0), status: resp.StatusCode}
	o.reason = resp.Header.Get(serve.ReasonHeader)
	return o
}

// newClient builds the load-generation HTTP client: connection reuse is
// essential open-loop, or the generator measures TCP setup instead of the
// serving tier.
func newClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 1024,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// summarize reduces the outcomes to the report, excluding arrivals inside
// the warmup span from every statistic except the warmup counters.
func summarize(cfg RunConfig, trace *Trace, results []outcome) Report {
	rep := Report{
		Name:       cfg.Name,
		Target:     cfg.Target,
		Arrival:    cfg.Arrival,
		OfferedRPS: cfg.RPS,
		DurationS:  cfg.Duration.Seconds(),
		WarmupS:    cfg.Warmup.Seconds(),
		Routes:     trace.Routes(),
		Samples:    trace.spec.Samples,
		Sent:       len(results),
		Status:     make(map[string]int),
		Reasons:    make(map[string]int),
	}
	var lats []float64
	for _, o := range results {
		if o.offset < cfg.Warmup {
			rep.Warmup++
			if o.status != http.StatusOK {
				rep.WarmupErrors++
			}
			continue
		}
		rep.Measured++
		key := "net"
		if o.status > 0 {
			key = strconv.Itoa(o.status)
		}
		rep.Status[key]++
		if o.reason != "" {
			rep.Reasons[o.reason]++
		}
		if o.status == http.StatusOK {
			rep.Succeeded++
			lats = append(lats, float64(o.latency)/float64(time.Millisecond))
		} else {
			rep.Errors++
		}
	}
	if rep.Measured > 0 {
		rep.SuccessRate = float64(rep.Succeeded) / float64(rep.Measured)
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Measured)
	}
	if win := cfg.Duration - cfg.Warmup; win > 0 {
		rep.AchievedRPS = float64(rep.Succeeded) / win.Seconds()
	}
	rep.LatencyMs = latencyStats(lats)
	return rep
}

// LatencyStats summarizes a latency sample in milliseconds.
type LatencyStats struct {
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
	Count int     `json:"count"`
}

// latencyStats computes exact percentiles from the full sample (the
// generator keeps every measurement; no histogram approximation).
func latencyStats(ms []float64) LatencyStats {
	s := LatencyStats{Count: len(ms)}
	if len(ms) == 0 {
		return s
	}
	sort.Float64s(ms)
	sum := 0.0
	for _, v := range ms {
		sum += v
	}
	s.Mean = sum / float64(len(ms))
	s.Max = ms[len(ms)-1]
	s.P50 = percentile(ms, 50)
	s.P90 = percentile(ms, 90)
	s.P99 = percentile(ms, 99)
	s.P999 = percentile(ms, 99.9)
	return s
}

// percentile returns the p-th percentile of a sorted sample (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
