package lb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gendt/internal/serve"
)

// Options configures the front tier. Zero fields take the defaults below.
type Options struct {
	// Replicas are the gendt-serve base URLs the ring spans. Required.
	Replicas []string
	// VNodes is the virtual-node count per replica on the hash ring.
	VNodes int
	// Retries bounds the extra attempts after the first (against distinct
	// ring successors) on 503 or connect error.
	Retries int
	// MaxInFlight caps concurrently forwarded requests per replica; at the
	// cap the balancer walks to the next successor, and sheds with an
	// explicit reason when every routable replica is capped.
	MaxInFlight int
	// Timeout bounds one forwarded attempt end to end.
	Timeout time.Duration
	// MaxBody bounds the buffered request body (it must be buffered to be
	// replayable across retries).
	MaxBody int64

	// AdminToken enables the mutating /admin/* endpoints (replica
	// membership, rollout state) for requests bearing
	// "Authorization: Bearer <token>". Empty disables the admin API.
	AdminToken string
	// DrainTimeout bounds how long a remove waits for a replica's in-flight
	// requests to finish before giving up (the replica stays drained but
	// remains a member so the operator can retry or readmit).
	DrainTimeout time.Duration

	// Probe knobs; see the defaults in probe.go.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailAfter     int
	OKAfter       int
}

// Front-tier defaults.
const (
	DefaultRetries      = 2
	DefaultMaxInFlight  = 64
	DefaultLBTimeout    = 60 * time.Second
	DefaultDrainTimeout = 30 * time.Second
)

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = DefaultVNodes
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = DefaultRetries
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = DefaultMaxInFlight
	}
	if o.Timeout <= 0 {
		o.Timeout = DefaultLBTimeout
	}
	if o.MaxBody <= 0 {
		o.MaxBody = serve.DefaultMaxBody
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = DefaultDrainTimeout
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = DefaultProbeInterval
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = DefaultProbeTimeout
	}
	if o.FailAfter <= 0 {
		o.FailAfter = DefaultFailAfter
	}
	if o.OKAfter <= 0 {
		o.OKAfter = DefaultOKAfter
	}
	return o
}

// LB is the consistent-hashing front tier over a fleet of gendt-serve
// replicas. Membership is dynamic: the ring is an immutable value behind an
// atomic pointer (readers never lock), and the replica state map is guarded
// by a read-write mutex. Membership mutations are serialized by memberMu
// and swap in a freshly built ring, so the minimal-redistribution property
// of the immutable ring holds across live add/remove.
type LB struct {
	opt Options

	ringp atomic.Pointer[Ring]

	repMu    sync.RWMutex
	replicas map[string]*replica // keyed by base URL

	memberMu sync.Mutex // serializes membership changes and Start

	client      *http.Client // forwarding
	probeClient *http.Client

	start    time.Time
	mux      *http.ServeMux
	draining atomic.Bool

	// Front-tier counters.
	requests atomic.Int64
	errors   atomic.Int64 // responses >= 400 returned to clients
	retries  atomic.Int64
	sheds    atomic.Int64
	upstream atomic.Int64 // requests failed after exhausting candidates
	canceled atomic.Int64 // forwards abandoned because the client went away
	latency  serve.Histogram

	rollMu  sync.Mutex
	rollout RolloutState

	started  atomic.Bool
	probeCtx context.Context
	stopOnce sync.Once
	stop     context.CancelFunc
	probes   sync.WaitGroup
}

// New builds the balancer; at least one replica URL is required. Call
// Start to begin health probing (replicas start healthy, so a balancer
// without probes still routes).
func New(opt Options) (*LB, error) {
	opt = opt.withDefaults()
	if len(opt.Replicas) == 0 {
		return nil, errors.New("lb: at least one replica is required")
	}
	lb := &LB{
		opt:      opt,
		replicas: make(map[string]*replica, len(opt.Replicas)),
		start:    time.Now(),
		rollout:  RolloutState{Phase: RolloutIdle},
	}
	lb.ringp.Store(NewRing(opt.Replicas, opt.VNodes))
	for _, name := range lb.Ring().Members() {
		if _, dup := lb.replicas[name]; dup {
			return nil, fmt.Errorf("lb: duplicate replica %q", name)
		}
		r := &replica{name: name}
		r.healthy.Store(true)
		lb.replicas[name] = r
	}
	tr := &http.Transport{
		MaxIdleConns:        4 * len(opt.Replicas) * opt.MaxInFlight,
		MaxIdleConnsPerHost: 2 * opt.MaxInFlight,
		IdleConnTimeout:     90 * time.Second,
	}
	lb.client = &http.Client{Transport: tr, Timeout: opt.Timeout}
	lb.probeClient = &http.Client{Timeout: opt.ProbeTimeout}

	lb.mux = http.NewServeMux()
	lb.mux.HandleFunc(serve.EndpointGenerate, lb.handleGenerate)
	lb.mux.HandleFunc(serve.EndpointModels, lb.handleModels)
	lb.mux.HandleFunc(serve.EndpointHealth, lb.handleHealth)
	lb.mux.HandleFunc(serve.EndpointVars, lb.handleVars)
	lb.mux.HandleFunc(EndpointAdminReplicas, lb.handleAdminReplicas)
	lb.mux.HandleFunc(EndpointAdminRollout, lb.handleAdminRollout)
	return lb, nil
}

// Handler returns the root handler.
func (lb *LB) Handler() http.Handler { return lb.mux }

// Ring returns the current (immutable) hash ring.
func (lb *LB) Ring() *Ring { return lb.ringp.Load() }

// replica resolves a member's state, nil if unknown.
func (lb *LB) replica(name string) *replica {
	lb.repMu.RLock()
	defer lb.repMu.RUnlock()
	return lb.replicas[name]
}

// replicaSnapshot copies the current replica state map.
func (lb *LB) replicaSnapshot() map[string]*replica {
	lb.repMu.RLock()
	defer lb.repMu.RUnlock()
	out := make(map[string]*replica, len(lb.replicas))
	for k, v := range lb.replicas {
		out[k] = v
	}
	return out
}

// Start launches one probe loop per replica. Close stops them. Replicas
// added later get their probe loop on admission.
func (lb *LB) Start() {
	lb.memberMu.Lock()
	defer lb.memberMu.Unlock()
	if lb.started.Load() {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	lb.probeCtx = ctx
	lb.stop = cancel
	lb.started.Store(true)
	for _, r := range lb.replicaSnapshot() {
		lb.startProbe(r)
	}
}

// startProbe launches r's probe loop (caller holds memberMu; Start must
// have run).
func (lb *LB) startProbe(r *replica) {
	pctx, cancel := context.WithCancel(lb.probeCtx)
	r.stopProbe = cancel
	lb.probes.Add(1)
	go func() {
		defer lb.probes.Done()
		lb.probeLoop(pctx, r)
	}()
}

// StartDrain flips the front tier's own /healthz to failing so an outer
// balancer or orchestrator routes away during shutdown.
func (lb *LB) StartDrain() { lb.draining.Store(true) }

// Close stops the probe loops (idempotent).
func (lb *LB) Close() {
	lb.stopOnce.Do(func() {
		if lb.stop != nil {
			lb.stop()
		}
		lb.probes.Wait()
	})
}

// Replica exposes one replica's state for tests and the smoke harness.
func (lb *LB) Replica(name string) (healthy bool, ejections int64, ok bool) {
	r := lb.replica(name)
	if r == nil {
		return false, 0, false
	}
	return r.healthy.Load(), r.ejections.Load(), true
}

// lbRequest is the subset of the generate request the balancer decodes to
// compute the routing key; everything else passes through opaquely.
type lbRequest struct {
	Model    string             `json:"model"`
	Route    []serve.RoutePoint `json:"route"`
	RouteCSV string             `json:"route_csv"`
}

func (lb *LB) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		lbError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	lb.requests.Add(1)
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	lb.routeGenerate(sw, r, start)
	lb.latency.Observe(time.Since(start))
	if sw.code >= 400 {
		lb.errors.Add(1)
	}
}

// routeGenerate buffers the body, hashes (model, route) onto the ring, and
// walks the successor sequence until an attempt produces a relayable
// response. start is when the request reached the balancer.
func (lb *LB) routeGenerate(w http.ResponseWriter, r *http.Request, start time.Time) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, lb.opt.MaxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			lbError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		lbError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	var req lbRequest
	if err := json.Unmarshal(body, &req); err != nil {
		lbError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}

	key := RouteKey(req.Model, req.Route, req.RouteCSV)
	ring := lb.Ring()
	seq := ring.Sequence(key, ring.Len())
	attempts := 0
	maxAttempts := lb.opt.Retries + 1
	sawCapFull := false
	var lastErr string

	for _, name := range seq {
		if attempts >= maxAttempts {
			break
		}
		rep := lb.replica(name)
		if rep == nil || !rep.routable(time.Now()) {
			continue
		}
		if !acquire(&rep.inFlight, int64(lb.opt.MaxInFlight)) {
			rep.sheds.Add(1)
			sawCapFull = true
			continue
		}
		attempts++
		done, reason := lb.forward(r.Context(), w, rep, body, start)
		rep.inFlight.Add(-1)
		if done {
			return
		}
		rep.retries.Add(1)
		lb.retries.Add(1)
		lastErr = reason
	}

	// Nothing produced a response. Saturation (every routable replica at
	// its cap, nothing attempted) is a shed; anything else — no healthy
	// replica, or retries exhausted against failing ones — is an upstream
	// failure. The distinction is what lets clients back off correctly.
	if attempts == 0 && sawCapFull {
		lb.sheds.Add(1)
		w.Header().Set("Retry-After", "1")
		w.Header().Set(serve.ReasonHeader, serve.ReasonShed)
		lbError(w, http.StatusServiceUnavailable, "all replicas at in-flight cap")
		return
	}
	lb.upstream.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(serve.DrainRetryAfter))
	w.Header().Set(serve.ReasonHeader, serve.ReasonUpstream)
	msg := "no healthy replica"
	if attempts > 0 {
		msg = fmt.Sprintf("retries exhausted after %d attempt(s)", attempts)
		if lastErr != "" {
			msg += ": " + lastErr
		}
	}
	lbError(w, http.StatusServiceUnavailable, msg)
}

// forward sends one attempt to rep. It returns done=true when a response
// was relayed to the client (any status except a retriable 503); otherwise
// the caller should walk to the next candidate, with reason describing this
// attempt's failure for the terminal error message. arrived is when the
// request reached the balancer.
func (lb *LB) forward(ctx context.Context, w http.ResponseWriter, rep *replica, body []byte, arrived time.Time) (done bool, reason string) {
	rep.requests.Add(1)
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		rep.name+serve.EndpointGenerate, bytes.NewReader(body))
	if err != nil {
		return false, err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := lb.client.Do(req)
	if err != nil {
		// A dead request context means the CLIENT went away (closed the
		// connection or canceled) — the replica did nothing wrong, so a slow
		// client must not feed the ejection state machine. Only a transport
		// failure with a live client context (connection refused/reset, or
		// lb.client's own per-attempt Timeout firing — an upstream timeout)
		// counts against the replica.
		if ctx.Err() != nil {
			lb.canceled.Add(1)
			lbError(w, http.StatusGatewayTimeout, "client context done: "+ctx.Err().Error())
			return true, ""
		}
		rep.noteFail(lb.opt.FailAfter)
		return false, err.Error()
	}
	defer resp.Body.Close()
	upstream := time.Since(start)
	rep.latency.Observe(upstream)

	if resp.StatusCode == http.StatusServiceUnavailable {
		// Draining or overloaded replica: honor its Retry-After as a
		// routing backoff and try the next ring successor.
		if ra := retryAfter(resp.Header); ra > 0 {
			rep.backoff(time.Now(), ra)
		}
		why := resp.Header.Get(serve.ReasonHeader)
		if why == "" {
			why = "503"
		}
		io.Copy(io.Discard, resp.Body)
		return false, "replica 503 (" + why + ")"
	}

	if resp.StatusCode >= 500 {
		rep.errors.Add(1)
	}
	relay(w, resp, time.Since(arrived)-upstream)
	return true, ""
}

// relay copies an upstream response through to the client, its length
// included so the hop does not re-chunk the body. A replica's stage timings
// gain an lb entry: self is the time the request has spent in the balancer
// outside the relayed attempt (routing, and any attempts that failed).
func relay(w http.ResponseWriter, resp *http.Response, self time.Duration) {
	for _, h := range []string{"Content-Type", "Retry-After", serve.ReasonHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	if v := resp.Header.Get(serve.TimingHeader); v != "" {
		ms := strconv.FormatFloat(float64(self)/float64(time.Millisecond), 'f', 3, 64)
		w.Header().Set(serve.TimingHeader, v+", lb;dur="+ms)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// acquire increments the gauge iff it is below cap.
func acquire(g *atomic.Int64, cap int64) bool {
	for {
		cur := g.Load()
		if cur >= cap {
			return false
		}
		if g.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// handleModels forwards the model listing to the first routable replica —
// every replica serves the same registry in a homogeneous fleet.
func (lb *LB) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		lbError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	now := time.Now()
	for _, name := range lb.Ring().Members() {
		rep := lb.replica(name)
		if rep == nil || !rep.routable(now) {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, name+serve.EndpointModels, nil)
		if err != nil {
			continue
		}
		resp, err := lb.client.Do(req)
		if err != nil {
			if r.Context().Err() == nil {
				rep.noteFail(lb.opt.FailAfter)
			}
			continue
		}
		relay(w, resp, 0) // the listing carries no stage timings
		resp.Body.Close()
		return
	}
	w.Header().Set(serve.ReasonHeader, serve.ReasonUpstream)
	lbError(w, http.StatusServiceUnavailable, "no healthy replica")
}

// ReplicaHealth is one replica's state in the /healthz response.
type ReplicaHealth struct {
	Name     string `json:"name"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining,omitempty"` // admin-held out of routing
}

// HealthResponse is the front tier's /healthz body.
type HealthResponse struct {
	Status   string          `json:"status"`
	Healthy  int             `json:"healthy"`
	Replicas []ReplicaHealth `json:"replicas"`
	UptimeS  float64         `json:"uptime_s"`
}

func (lb *LB) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{Status: "ok", UptimeS: time.Since(lb.start).Seconds()}
	for _, name := range lb.Ring().Members() {
		rep := lb.replica(name)
		if rep == nil {
			continue
		}
		h := rep.healthy.Load()
		if h {
			resp.Healthy++
		}
		resp.Replicas = append(resp.Replicas, ReplicaHealth{
			Name: name, Healthy: h, Draining: rep.hold.Load(),
		})
	}
	code := http.StatusOK
	switch {
	case lb.draining.Load():
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(serve.DrainRetryAfter))
		w.Header().Set(serve.ReasonHeader, serve.ReasonDraining)
	case resp.Healthy == 0:
		resp.Status = "no-healthy-replicas"
		code = http.StatusServiceUnavailable
	}
	lbJSON(w, code, resp)
}

// ReplicaSnap is one replica's /debug/vars entry.
type ReplicaSnap struct {
	Healthy    bool                `json:"healthy"`
	Draining   bool                `json:"draining,omitempty"`
	Member     bool                `json:"member"` // still on the ring
	InFlight   int64               `json:"in_flight"`
	Requests   int64               `json:"requests"`
	Errors     int64               `json:"errors"`
	Retries    int64               `json:"retries"`
	Sheds      int64               `json:"sheds"`
	Ejections  int64               `json:"ejections"`
	Readmits   int64               `json:"readmissions"`
	ProbeFails int64               `json:"probe_failures"`
	ProbeMs    int64               `json:"last_probe_ms"`
	Latency    serve.HistogramSnap `json:"latency"`
}

// VarsSnap is the front tier's /debug/vars document.
type VarsSnap struct {
	UptimeS  float64                `json:"uptime_s"`
	Requests int64                  `json:"requests"`
	Errors   int64                  `json:"errors"`
	Retries  int64                  `json:"retries"`
	Sheds    int64                  `json:"sheds"`
	Upstream int64                  `json:"upstream_failures"`
	Canceled int64                  `json:"client_cancels"`
	Latency  serve.HistogramSnap    `json:"latency"`
	Rollout  RolloutState           `json:"rollout"`
	Replicas map[string]ReplicaSnap `json:"replicas"`
}

// Snapshot renders the balancer's metrics (the /debug/vars handler, the
// smoke harness, and the rollout error-budget watcher read it).
func (lb *LB) Snapshot() VarsSnap {
	s := VarsSnap{
		UptimeS:  time.Since(lb.start).Seconds(),
		Requests: lb.requests.Load(),
		Errors:   lb.errors.Load(),
		Retries:  lb.retries.Load(),
		Sheds:    lb.sheds.Load(),
		Upstream: lb.upstream.Load(),
		Canceled: lb.canceled.Load(),
		Latency:  lb.latency.Snapshot(),
		Rollout:  lb.RolloutState(),
	}
	members := make(map[string]bool)
	for _, m := range lb.Ring().Members() {
		members[m] = true
	}
	reps := lb.replicaSnapshot()
	s.Replicas = make(map[string]ReplicaSnap, len(reps))
	for name, r := range reps {
		s.Replicas[name] = ReplicaSnap{
			Healthy:    r.healthy.Load(),
			Draining:   r.hold.Load(),
			Member:     members[name],
			InFlight:   r.inFlight.Load(),
			Requests:   r.requests.Load(),
			Errors:     r.errors.Load(),
			Retries:    r.retries.Load(),
			Sheds:      r.sheds.Load(),
			Ejections:  r.ejections.Load(),
			Readmits:   r.readmits.Load(),
			ProbeFails: r.probeFails.Load(),
			ProbeMs:    r.lastProbeMs.Load(),
			Latency:    r.latency.Snapshot(),
		}
	}
	return s
}

func (lb *LB) handleVars(w http.ResponseWriter, _ *http.Request) {
	lbJSON(w, http.StatusOK, lb.Snapshot())
}

// statusWriter records the relayed status for error accounting.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func lbJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func lbError(w http.ResponseWriter, code int, msg string) {
	lbJSON(w, code, map[string]string{"error": msg})
}
