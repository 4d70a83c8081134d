// Package loadgen implements gendt-bench: deterministic trajectory-request
// trace synthesis and an open-loop load generator for the GenDT serving
// tier. Open-loop means arrivals are scheduled from a clock, not from
// completions: a saturated server keeps receiving offered load and its
// queues (and tail latencies) grow, which is what a capacity measurement
// must observe. A closed-loop client would slow its own arrival rate to
// match the server and report a flattering latency at whatever throughput
// the server chose — coordinated omission by construction.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"gendt/internal/dataset"
	"gendt/internal/serve"
)

// TraceSpec pins everything a request trace is derived from besides the
// world itself. Two equal specs over the same world synthesize
// byte-identical traces: all randomness flows from RNGSeed.
type TraceSpec struct {
	// Routes is the number of distinct trajectories in the trace. The
	// generator cycles through them, so this controls how concentrated the
	// fleet's prepared-sequence caches are.
	Routes int
	// Steps truncates each trajectory (0 keeps full length).
	Steps int
	// Model names the registry entry to generate from ("" = single-model
	// default).
	Model string
	// Samples is the per-request fan-out (response envelope size).
	Samples int
	// RNGSeed seeds route selection, request seeds, and Poisson arrivals.
	RNGSeed int64
}

func (s TraceSpec) withDefaults() TraceSpec {
	if s.Routes <= 0 {
		s.Routes = 8
	}
	if s.Samples <= 0 {
		s.Samples = 1
	}
	if s.RNGSeed == 0 {
		s.RNGSeed = 1
	}
	return s
}

// Trace is a replayable request stream: a fixed set of route bodies plus a
// deterministic per-request seed schedule.
type Trace struct {
	spec   TraceSpec
	routes [][]serve.RoutePoint
	rng    *rand.Rand
}

// BuildTrace synthesizes the trace from d, which must be the world the
// serving fleet holds resident (same scenario, scale and seed) or the
// generated KPIs are for a different city: it pools d's scenario
// trajectories and picks Routes of them with the seeded RNG.
func BuildTrace(d *dataset.Dataset, spec TraceSpec) (*Trace, error) {
	spec = spec.withDefaults()
	runs := append(d.TrainRuns(), d.TestRuns()...)
	if len(runs) == 0 {
		return nil, fmt.Errorf("loadgen: dataset %s has no runs", d.Name)
	}
	rng := rand.New(rand.NewSource(spec.RNGSeed))
	routes := make([][]serve.RoutePoint, 0, spec.Routes)
	for len(routes) < spec.Routes {
		tr := runs[rng.Intn(len(runs))].Traj
		if spec.Steps > 1 && len(tr) > spec.Steps {
			// Offset into the trajectory so two picks of the same run still
			// yield distinct routes (and distinct ring keys).
			maxOff := len(tr) - spec.Steps
			off := rng.Intn(maxOff + 1)
			tr = tr[off : off+spec.Steps]
		}
		if len(tr) < 2 {
			continue
		}
		routes = append(routes, serve.RouteFrom(tr))
	}
	return &Trace{spec: spec, routes: routes, rng: rng}, nil
}

// Routes reports the number of distinct routes in the trace.
func (t *Trace) Routes() int { return len(t.routes) }

// Request returns the i-th request of the replay: the body cycles through
// the route set while the seed is unique per request (DeriveSeed-style
// splitmix of the trace seed), so the fleet's prep caches stay hot but
// every generation is an independent draw.
func (t *Trace) Request(i int) ([]byte, error) {
	req := serve.GenerateRequest{
		Model:   t.spec.Model,
		Seed:    requestSeed(t.spec.RNGSeed, i),
		Samples: t.spec.Samples,
		Route:   t.routes[i%len(t.routes)],
	}
	return json.Marshal(req)
}

// RouteRequest returns the request pinned to route r (0 <= r < Routes())
// with an explicit seed — the bit-identity verification path, where the
// same (route, seed) must reproduce exactly through any serving topology.
func (t *Trace) RouteRequest(r int, seed int64) serve.GenerateRequest {
	return serve.GenerateRequest{
		Model:   t.spec.Model,
		Seed:    seed,
		Samples: t.spec.Samples,
		Route:   t.routes[r],
	}
}

// requestSeed derives the i-th request seed from the trace seed with a
// splitmix64 step: deterministic, collision-free over the replay, and never
// 0 in practice (0 would make the server draw its own seed).
func requestSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z)
	if s == 0 {
		s = 1
	}
	return s
}
