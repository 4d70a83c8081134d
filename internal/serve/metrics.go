package serve

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// latencyBucketsMs are the upper bounds (milliseconds) of the fixed
// logarithmic latency histogram; the final implicit bucket is +Inf.
var latencyBucketsMs = [...]float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// sizeBuckets are the upper bounds of the realized-batch-size histogram
// (requests coalesced per GenerateJobs call); the final implicit bucket
// is +Inf. Powers of two up to DefaultMaxBatch — a batch of 1 means no
// coalescing happened, the top buckets mean the window is doing its job.
var sizeBuckets = [...]float64{1, 2, 4, 8, 16, 32, 64}

// bucketCounter is the atomic fixed-bucket counter behind both exported
// histograms: counts[i] holds the observations above bounds[i-1] and up to
// bounds[i], the slot after the last bound is +Inf. Safe for concurrent
// observation without locks; the zero value is ready to use.
type bucketCounter struct {
	counts [len(latencyBucketsMs) + 1]atomic.Int64 // the longer bounds list plus +Inf
	sum    atomic.Int64
	n      atomic.Int64
}

func (c *bucketCounter) observe(bounds []float64, v float64, add int64) {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	c.counts[i].Add(1)
	c.sum.Add(add)
	c.n.Add(1)
}

// snap is a rendered bucketCounter: the count, the mean of the added
// values, and the non-empty buckets keyed by their integral upper bound.
// HistogramSnap and SizeHistogramSnap are this struct under two sets of
// JSON names, so they convert to it and share its arithmetic.
type snap struct {
	Count   int64
	Mean    float64
	Buckets map[string]int64
}

func (c *bucketCounter) snapshot(bounds []float64, unit float64) snap {
	s := snap{Count: c.n.Load(), Buckets: make(map[string]int64, len(bounds)+1)}
	if s.Count > 0 {
		s.Mean = float64(c.sum.Load()) / float64(s.Count) / unit
	}
	for i := 0; i <= len(bounds); i++ {
		if n := c.counts[i].Load(); n > 0 {
			s.Buckets[bucketKey(bounds, i)] = n
		}
	}
	return s
}

// bucketKey names bucket i of a bounds list the way the JSON does.
func bucketKey(bounds []float64, i int) string {
	if i == len(bounds) {
		return "+Inf"
	}
	return strconv.Itoa(int(bounds[i]))
}

// sub subtracts the earlier cumulative snapshot pre, leaving what was
// observed between the two. Buckets absent from a snapshot are zero.
func (s snap) sub(pre snap) snap {
	d := snap{Count: s.Count - pre.Count, Buckets: make(map[string]int64, len(s.Buckets))}
	if d.Count > 0 {
		d.Mean = (s.Mean*float64(s.Count) - pre.Mean*float64(pre.Count)) / float64(d.Count)
	}
	for k, n := range s.Buckets {
		if dn := n - pre.Buckets[k]; dn > 0 {
			d.Buckets[k] = dn
		}
	}
	return d
}

// quantile is the nearest-rank quantile over the buckets: the upper bound
// of the bucket the rank lands in, +Inf for the overflow bucket, 0 for an
// empty histogram.
func (s snap) quantile(bounds []float64, q float64) float64 {
	var total int64
	for _, n := range s.Buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(total))), 1)
	var cum int64
	for i, le := range bounds {
		if cum += s.Buckets[bucketKey(bounds, i)]; cum >= rank {
			return le
		}
	}
	return math.Inf(1)
}

// Histogram is a fixed-bucket latency histogram. It is exported so sibling
// serving-tier packages (the gendt-lb front tier) report latency in the
// same buckets and JSON shape as gendt-serve.
type Histogram struct{ c bucketCounter }

func (h *Histogram) Observe(d time.Duration) {
	h.c.observe(latencyBucketsMs[:], float64(d)/float64(time.Millisecond), int64(d))
}

// HistogramSnap is the JSON rendering of a Histogram.
type HistogramSnap struct {
	Count   int64            `json:"count"`
	Mean    float64          `json:"mean_ms"`
	Buckets map[string]int64 `json:"buckets_le_ms"`
}

// Snapshot renders the histogram's current counts.
func (h *Histogram) Snapshot() HistogramSnap {
	return HistogramSnap(h.c.snapshot(latencyBucketsMs[:], float64(time.Millisecond)))
}

// Sub returns the observations made after pre was taken and up to s.
func (s HistogramSnap) Sub(pre HistogramSnap) HistogramSnap {
	return HistogramSnap(snap(s).sub(snap(pre)))
}

// Quantile is the nearest-rank latency quantile in milliseconds, to bucket
// resolution.
func (s HistogramSnap) Quantile(q float64) float64 { return snap(s).quantile(latencyBucketsMs[:], q) }

// SizeHistogram counts integer observations in fixed power-of-two buckets.
type SizeHistogram struct{ c bucketCounter }

func (h *SizeHistogram) Observe(v int) { h.c.observe(sizeBuckets[:], float64(v), int64(v)) }

// SizeHistogramSnap is the JSON rendering of a SizeHistogram.
type SizeHistogramSnap struct {
	Count   int64            `json:"count"`
	Mean    float64          `json:"mean"`
	Buckets map[string]int64 `json:"buckets_le"`
}

// Snapshot renders the histogram's current counts.
func (h *SizeHistogram) Snapshot() SizeHistogramSnap {
	return SizeHistogramSnap(h.c.snapshot(sizeBuckets[:], 1))
}

// Sub returns the observations made after pre was taken and up to s.
func (s SizeHistogramSnap) Sub(pre SizeHistogramSnap) SizeHistogramSnap {
	return SizeHistogramSnap(snap(s).sub(snap(pre)))
}

// BucketString renders the non-empty buckets as "le:count" in ascending
// bound order, "+Inf" last, e.g. "1:12 2:3 8:1".
func (s SizeHistogramSnap) BucketString() string {
	var parts []string
	for i := 0; i <= len(sizeBuckets); i++ {
		if k := bucketKey(sizeBuckets[:], i); s.Buckets[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", k, s.Buckets[k]))
		}
	}
	return strings.Join(parts, " ")
}

// The stages of a /v1/generate request, in the order they run. They tile the
// handler from entry to the encoded body: decode ends when the route is
// parsed, prepare when the sequence is ready, queue when the request's batch
// goes to the engine (≈ 0 on an idle replica), engine when GenerateJobs
// returns, encode when the response body is built.
const (
	StageDecode = iota
	StagePrepare
	StageQueue
	StageEngine
	StageEncode
	numStages
)

var stageNames = [numStages]string{"decode", "prepare", "queue", "engine", "encode"}

// TimingHeader carries a 200's stage durations back to the client; gendt-lb
// forwards it and appends its own hop.
const TimingHeader = "Server-Timing"

// serverTiming renders the stage durations between consecutive marks as a
// Server-Timing value in milliseconds, e.g.
// "decode;dur=0.031, prepare;desc=miss;dur=1.402, queue;dur=0.012, ...".
func serverTiming(at *[numStages + 1]time.Time, cached bool) string {
	b := make([]byte, 0, 128)
	for i, name := range stageNames {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, name...)
		if i == StagePrepare && cached {
			b = append(b, ";desc=hit"...)
		} else if i == StagePrepare {
			b = append(b, ";desc=miss"...)
		}
		b = append(b, ";dur="...)
		b = strconv.AppendFloat(b, float64(at[i+1].Sub(at[i]))/float64(time.Millisecond), 'f', 3, 64)
	}
	return string(b)
}

// endpointStats tracks one endpoint's request count, error count, in-flight
// gauge, and latency histogram.
type endpointStats struct {
	Requests atomic.Int64
	Errors   atomic.Int64
	InFlight atomic.Int64
	Latency  Histogram
}

type endpointSnap struct {
	Requests int64         `json:"requests"`
	Errors   int64         `json:"errors"`
	InFlight int64         `json:"in_flight"`
	Latency  HistogramSnap `json:"latency"`
}

// Metrics aggregates the server's observability state, exposed as JSON at
// /debug/vars. All counters are atomics: observation never contends with
// request handling.
type Metrics struct {
	start     time.Time
	endpoints map[string]*endpointStats // fixed key set, created upfront

	// Generation-specific counters.
	GenerateNs      atomic.Int64  // cumulative ns spent inside GenerateJobs
	GenerateSamples atomic.Int64  // samples generated (jobs executed)
	Batches         atomic.Int64  // GenerateJobs calls issued by the batcher
	BatchedRequests atomic.Int64  // requests that shared a batch with >=1 other
	MaxBatch        atomic.Int64  // largest coalesced batch observed (requests)
	BatchSize       SizeHistogram // realized batch sizes (requests per batch)
	PrepHits        atomic.Int64  // prepared-sequence cache hits
	PrepMisses      atomic.Int64  // prepared-sequence cache misses

	Stages [numStages]Histogram // per-stage durations of answered /v1/generate requests
}

// NewMetrics creates the metrics state for the given endpoint names.
func NewMetrics(endpoints ...string) *Metrics {
	m := &Metrics{start: time.Now(), endpoints: make(map[string]*endpointStats, len(endpoints))}
	for _, e := range endpoints {
		m.endpoints[e] = &endpointStats{}
	}
	return m
}

// Endpoint returns the stats for a registered endpoint name, or nil.
func (m *Metrics) Endpoint(name string) *endpointStats { return m.endpoints[name] }

// ObserveBatch records one executed batch of n coalesced requests covering
// samples generation jobs that took d.
func (m *Metrics) ObserveBatch(n, samples int, d time.Duration) {
	m.Batches.Add(1)
	m.GenerateSamples.Add(int64(samples))
	m.GenerateNs.Add(int64(d))
	if n > 1 {
		m.BatchedRequests.Add(int64(n))
	}
	m.BatchSize.Observe(n)
	for {
		cur := m.MaxBatch.Load()
		if int64(n) <= cur || m.MaxBatch.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// varsSnap is the /debug/vars JSON document.
type varsSnap struct {
	UptimeS   float64                  `json:"uptime_s"`
	Endpoints map[string]endpointSnap  `json:"endpoints"`
	Stages    map[string]HistogramSnap `json:"stages"`

	Generate struct {
		Samples         int64             `json:"samples"`
		NsPerSample     float64           `json:"ns_per_sample"`
		Batches         int64             `json:"batches"`
		BatchedRequests int64             `json:"batched_requests"`
		MaxBatch        int64             `json:"max_batch"`
		BatchSizeHist   SizeHistogramSnap `json:"batch_size_hist"`
		PrepCacheHits   int64             `json:"prep_cache_hits"`
		PrepCacheMisses int64             `json:"prep_cache_misses"`
	} `json:"generate"`

	Runtime struct {
		Goroutines  int    `json:"goroutines"`
		AllocBytes  uint64 `json:"alloc_bytes"`
		TotalAlloc  uint64 `json:"total_alloc_bytes"`
		SysBytes    uint64 `json:"sys_bytes"`
		HeapObjects uint64 `json:"heap_objects"`
		NumGC       uint32 `json:"num_gc"`
	} `json:"runtime"`
}

// Snapshot renders the current metrics, sampling runtime.MemStats.
func (m *Metrics) Snapshot() varsSnap {
	var s varsSnap
	s.UptimeS = time.Since(m.start).Seconds()
	s.Endpoints = make(map[string]endpointSnap, len(m.endpoints))
	for name, e := range m.endpoints {
		s.Endpoints[name] = endpointSnap{
			Requests: e.Requests.Load(),
			Errors:   e.Errors.Load(),
			InFlight: e.InFlight.Load(),
			Latency:  e.Latency.Snapshot(),
		}
	}
	s.Stages = make(map[string]HistogramSnap, numStages)
	for i, name := range stageNames {
		s.Stages[name] = m.Stages[i].Snapshot()
	}
	s.Generate.Samples = m.GenerateSamples.Load()
	if s.Generate.Samples > 0 {
		s.Generate.NsPerSample = float64(m.GenerateNs.Load()) / float64(s.Generate.Samples)
	}
	s.Generate.Batches = m.Batches.Load()
	s.Generate.BatchedRequests = m.BatchedRequests.Load()
	s.Generate.MaxBatch = m.MaxBatch.Load()
	s.Generate.BatchSizeHist = m.BatchSize.Snapshot()
	s.Generate.PrepCacheHits = m.PrepHits.Load()
	s.Generate.PrepCacheMisses = m.PrepMisses.Load()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.Runtime.Goroutines = runtime.NumGoroutine()
	s.Runtime.AllocBytes = ms.Alloc
	s.Runtime.TotalAlloc = ms.TotalAlloc
	s.Runtime.SysBytes = ms.Sys
	s.Runtime.HeapObjects = ms.HeapObjects
	s.Runtime.NumGC = ms.NumGC
	return s
}
