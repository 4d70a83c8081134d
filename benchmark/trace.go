package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"gendt/internal/core"
)

// Layers a span can belong to. A request's spans nest
// req > send > lb > serve > core.
const (
	layerReq   = "req"   // the load generator: due time to last body byte
	layerSend  = "send"  // the load generator: first byte sent to last body byte
	layerLB    = "lb"    // around lb's handler
	layerServe = "serve" // around a replica's handler
	layerCore  = "core"  // around Generator.GenerateJobs
)

// span is one timed interval at a layer boundary. ID is the request's seed,
// which is unique per request and travels in the body, so every layer can
// read it without the program's help. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	Layer  string `json:"layer"`
	ID     int64  `json:"id"`
	Parent string `json:"parent,omitempty"` // layer of the span that caused this one
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Jobs   int    `json:"jobs,omitempty"` // core: jobs in the GenerateJobs call
	Reqs   int    `json:"reqs,omitempty"` // core: requests coalesced into it
}

func (s span) dur() int64 { return s.End - s.Start }

// engineCall is one GenerateJobs call as the decorator saw it: job seeds are
// kept raw and matched to requests when the window is over.
type engineCall struct {
	start, end int64
	seeds      []int64
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	calls []engineCall

	// Per resolved GenerateJobs call: jobs in it and requests coalesced.
	callJobs, callReqs []float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// tracedGenerator decorates a Generator with a span around GenerateJobs.
type tracedGenerator struct {
	core.Generator
	tr *tracer
}

var _ core.Generator = tracedGenerator{}

func (g tracedGenerator) GenerateJobs(jobs []core.GenJob) [][][]float64 {
	seeds := make([]int64, len(jobs))
	for i, j := range jobs {
		seeds[i] = j.Seed
	}
	start := time.Now()
	out := g.Generator.GenerateJobs(jobs)
	end := time.Now()
	g.tr.mu.Lock()
	g.tr.calls = append(g.tr.calls, engineCall{g.tr.since(start), g.tr.since(end), seeds})
	g.tr.mu.Unlock()
	return out
}

func (g tracedGenerator) WithWorkers(n int) core.Generator {
	return tracedGenerator{Generator: g.Generator.WithWorkers(n), tr: g.tr}
}

// traceHTTP records a span around every POST the handler serves, identified
// by the seed in the request body.
func traceHTTP(layer string, tr *tracer, h http.Handler) http.Handler {
	parent := map[string]string{layerLB: layerSend, layerServe: layerLB}[layer]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
		tr.add(span{Layer: layer, ID: seedOf(body), Parent: parent, Start: tr.since(start), End: tr.since(time.Now())})
	})
}

var seedKey = []byte(`"seed":`)

// seedOf reads the seed out of a request body without decoding it.
func seedOf(body []byte) int64 {
	i := bytes.Index(body, seedKey)
	if i < 0 {
		return 0
	}
	rest := body[i+len(seedKey):]
	j := 0
	for j < len(rest) && (rest[j] == '-' || (rest[j] >= '0' && rest[j] <= '9')) {
		j++
	}
	n, _ := strconv.ParseInt(string(rest[:j]), 10, 64) // a body without digits here has no seed: 0
	return n
}

// resolveCalls turns the engine calls into one core span per request they
// served. A request is recognised by the seed of its first sample,
// DeriveSeed(seed, 0).
func (t *tracer) resolveCalls(requestSeeds []int64) {
	first := make(map[int64]int64, len(requestSeeds))
	for _, s := range requestSeeds {
		first[core.DeriveSeed(s, 0)] = s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.calls {
		var reqs []int64
		for _, js := range c.seeds {
			if id, ok := first[js]; ok {
				reqs = append(reqs, id)
			}
		}
		if len(reqs) == 0 {
			continue // a warm-up call: none of its requests is being traced
		}
		t.callJobs = append(t.callJobs, float64(len(c.seeds)))
		t.callReqs = append(t.callReqs, float64(len(reqs)))
		for _, id := range reqs {
			t.spans = append(t.spans, span{Layer: layerCore, ID: id, Parent: layerServe,
				Start: c.start, End: c.end, Jobs: len(c.seeds), Reqs: len(reqs)})
		}
	}
	t.calls = nil
}

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the parent and overlapping children count once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return parent.dur() - covered
}

// requestTrace is the spans of one request, by layer.
type requestTrace struct {
	req, send, lb span
	serve         []span // more than one when lb retried
	core          []span
}

// byRequest groups spans by request ID, keeping only requests seen by the
// load generator.
func byRequest(spans []span) map[int64]*requestTrace {
	out := make(map[int64]*requestTrace)
	for _, s := range spans {
		if s.Layer == layerReq {
			out[s.ID] = &requestTrace{req: s}
		}
	}
	for _, s := range spans {
		rt := out[s.ID]
		if rt == nil {
			continue
		}
		switch s.Layer {
		case layerSend:
			rt.send = s
		case layerLB:
			rt.lb = s
		case layerServe:
			rt.serve = append(rt.serve, s)
		case layerCore:
			rt.core = append(rt.core, s)
		}
	}
	return out
}

// layerTimes reduces the traced requests to per-layer medians, microseconds.
type layerTimes struct {
	lag, wire, lbSelf, servePre, servePost, coreP50, coreP95 float64
	n                                                        int
}

func reduceSpans(spans []span) layerTimes {
	var lag, wire, lbSelf, pre, post, gen []float64
	for _, rt := range byRequest(spans) {
		if rt.lb.End == 0 || len(rt.serve) != 1 || len(rt.core) != 1 {
			continue // a retried or failed request has no single path to attribute
		}
		sv, c := rt.serve[0], rt.core[0]
		lag = append(lag, float64(selfTime(rt.req, []span{rt.send}))/1e3)
		wire = append(wire, float64(selfTime(rt.send, []span{rt.lb}))/1e3)
		lbSelf = append(lbSelf, float64(selfTime(rt.lb, rt.serve))/1e3)
		pre = append(pre, float64(c.Start-sv.Start)/1e3)
		post = append(post, float64(sv.End-c.End)/1e3)
		gen = append(gen, float64(c.dur())/1e3)
	}
	sort.Float64s(gen)
	return layerTimes{
		lag: median(lag), wire: median(wire), lbSelf: median(lbSelf), servePre: median(pre), servePost: median(post),
		coreP50: percentile(gen, 50), coreP95: percentile(gen, 95), n: len(gen),
	}
}

// writeSpans stores the run's spans under benchmark/out/.
func (t *tracer) writeSpans(workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	path := filepath.Join(outDir, "trace-"+workload+".json")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
