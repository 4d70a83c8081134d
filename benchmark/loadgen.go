package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gendt/internal/dataset"
	"gendt/internal/geo"
	"gendt/internal/serve"
)

// The load generator owns route, seed and arrival selection: all three come
// from the benchmark's -seed, the program under test receives only request
// bodies. It does not use internal/loadgen, whose latencies start at send
// time and whose inputs could drift with that package.

// route is one trajectory a request can ask for, with its JSON encoding.
type route struct {
	traj geo.Trajectory
	json []byte
}

// cutRoutes cuts n distinct windows of the given length out of the world's
// runs, chosen by rng.
func cutRoutes(ds *dataset.Dataset, rng *rand.Rand, n, steps int) ([]route, error) {
	type cut struct{ run, off int }
	var cuts []cut
	for r, run := range ds.Runs {
		for off := 0; off+steps <= len(run.Traj); off++ {
			cuts = append(cuts, cut{r, off})
		}
	}
	if len(cuts) < n {
		return nil, fmt.Errorf("world has %d windows of %d steps, need %d", len(cuts), steps, n)
	}
	rng.Shuffle(len(cuts), func(i, j int) { cuts[i], cuts[j] = cuts[j], cuts[i] })
	routes := make([]route, n)
	for i, c := range cuts[:n] {
		tr := ds.Runs[c.run].Traj[c.off : c.off+steps]
		pts := make([]serve.RoutePoint, len(tr))
		for k, s := range tr {
			pts[k] = serve.RoutePoint{T: s.T, Lat: s.Lat, Lon: s.Lon}
		}
		js, err := json.Marshal(pts)
		if err != nil {
			return nil, err
		}
		routes[i] = route{traj: tr, json: js}
	}
	return routes, nil
}

// request is one scheduled call. due is the offset from the window's start
// at which it should be sent.
type request struct {
	due   time.Duration
	seed  int64
	route int
	body  []byte
}

// requestBody writes the body with the seed first, where the tracing
// middleware finds it without decoding.
func requestBody(seed int64, samples int, r route) []byte {
	b := make([]byte, 0, len(r.json)+64)
	b = append(b, `{"seed":`...)
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, `,"samples":`...)
	b = strconv.AppendInt(b, int64(samples), 10)
	b = append(b, `,"route":`...)
	b = append(b, r.json...)
	return append(b, '}')
}

// arrivals returns the due offsets of one window: Poisson (exponential gaps)
// or evenly paced, at the given rate, until the window is full.
func arrivals(rng *rand.Rand, rps float64, window time.Duration, poisson bool) []time.Duration {
	var due []time.Duration
	gap := float64(time.Second) / rps
	for t := 0.0; ; {
		if poisson {
			t += rng.ExpFloat64() * gap
		} else {
			t += gap
		}
		if time.Duration(t) >= window {
			return due
		}
		due = append(due, time.Duration(t))
	}
}

// traffic describes a serving workload's requests.
type traffic struct {
	routes  []route
	samples int
	cycle   bool // visit routes in order instead of at random
	nextID  int64
	cursor  int
}

// schedule builds the requests for the given due offsets. Seeds are unique
// across every schedule built from one traffic value.
func (tf *traffic) schedule(rng *rand.Rand, due []time.Duration) []request {
	reqs := make([]request, len(due))
	for i, d := range due {
		r := rng.Intn(len(tf.routes))
		if tf.cycle {
			r = tf.cursor % len(tf.routes)
			tf.cursor++
		}
		tf.nextID++
		reqs[i] = request{due: d, seed: tf.nextID, route: r, body: requestBody(tf.nextID, tf.samples, tf.routes[r])}
	}
	return reqs
}

// outcome is what happened to one request. Offsets are from the window's
// start; latency is measured from due, so a stall that delays later sends
// counts against them.
type outcome struct {
	req        *request
	sent, done time.Duration
	status     int // 0 when the request failed before a status
	body       []byte
}

func (o outcome) ok() bool               { return o.status == http.StatusOK }
func (o outcome) sendLag() time.Duration { return o.sent - o.req.due }
func (o outcome) latencyMs() float64     { return float64(o.done-o.req.due) / 1e6 }

// recordEvery is the share of responses kept for verification: one in 20.
const recordEvery = 20

// drive sends the requests over at most conns keep-alive connections. Each
// connection takes the next unsent request, waits until it is due and sends
// it. It returns the outcomes and the window's start time.
func drive(client *http.Client, url string, reqs []request, conns int) ([]outcome, time.Time) {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				rq := &reqs[i]
				if wait := rq.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				o := outcome{req: rq, sent: time.Since(start)}
				resp, err := client.Post(url, "application/json", bytes.NewReader(rq.body))
				if err == nil {
					buf.Reset()
					_, err = io.Copy(&buf, resp.Body)
					resp.Body.Close()
					if err == nil {
						o.status = resp.StatusCode
						if i%recordEvery == 0 || !o.ok() {
							o.body = append([]byte(nil), buf.Bytes()...)
						}
					}
				}
				o.done = time.Since(start)
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs, start
}

// newClient returns a client that keeps at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: 90 * time.Second},
		Timeout:   30 * time.Second,
	}
}

// rung is one rate's measured window.
type rung struct {
	rps              float64
	sent, ok, failed int
	p50Ms, tailMs    float64
	p99Ms            float64
	tailPct          float64
	beyond           int
	lagP99Ms         float64
	lastTenthLagMs   float64 // median due-to-send lag of the last tenth sent
}

func summarize(rps float64, outs []outcome, tailPct float64) rung {
	r := rung{rps: rps, sent: len(outs)}
	var lat, lag []float64
	for _, o := range outs {
		if o.ok() {
			r.ok++
			lat = append(lat, o.latencyMs())
		}
		lag = append(lag, float64(o.sendLag())/1e6)
	}
	r.failed = r.sent - r.ok
	if tailPct == 0 {
		tailPct = tailPercentile(len(lat))
	}
	r.tailPct, r.beyond = tailPct, beyond(len(lat), tailPct)
	sort.Float64s(lat)
	r.p50Ms, r.tailMs = percentile(lat, 50), percentile(lat, tailPct)
	r.p99Ms = percentile(lat, 99)
	if n := len(lag); n > 0 {
		tenth := n / 10
		if tenth < 1 {
			tenth = 1
		}
		r.lastTenthLagMs = median(lag[n-tenth:])
		r.lagP99Ms = percentile(sortedCopy(lag), 99)
	}
	return r
}

// meets reports whether the rung held its rate: at least 99 % of the requests
// sent succeeded (a failure misses any limit), the tail meets the latency
// limit, and the generator was not falling behind at the end — the median
// send lag of the last tenth stays under the limit, so no backlog is growing.
func (r rung) meets(limitMs float64) bool {
	return r.sent > 0 && float64(r.ok) >= 0.99*float64(r.sent) &&
		r.tailMs <= limitMs && r.lastTenthLagMs < limitMs
}

// maxOKRps climbs the ladder and returns the last rate that meets the limit
// before the first that does not; 0 if the lowest fails.
func maxOKRps(rungs []rung, limitMs float64) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.meets(limitMs) {
			break
		}
		best = r.rps
	}
	return best
}
