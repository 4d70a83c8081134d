package lb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gendt/internal/serve"
)

// fakeReplica is a controllable stand-in for a gendt-serve replica: its
// /v1/generate echoes the replica id, and /healthz and 503 behavior flip
// atomically from tests.
type fakeReplica struct {
	id        string
	srv       *httptest.Server
	healthy   atomic.Bool
	draining  atomic.Bool // /v1/generate answers 503 draining
	blockOn   atomic.Bool // /v1/generate waits for close(block)
	bigBody   atomic.Bool // /v1/generate answers with stage timings and a body past the server's write buffer
	block     chan struct{}
	generates atomic.Int64
}

func newFakeReplica(t *testing.T, id string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{id: id, block: make(chan struct{})}
	f.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc(serve.EndpointHealth, func(w http.ResponseWriter, r *http.Request) {
		if !f.healthy.Load() {
			w.Header().Set("Retry-After", "1")
			w.Header().Set(serve.ReasonHeader, serve.ReasonDraining)
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, `{"status":"ok"}`)
	})
	mux.HandleFunc(serve.EndpointGenerate, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if f.draining.Load() {
			w.Header().Set("Retry-After", "1")
			w.Header().Set(serve.ReasonHeader, serve.ReasonDraining)
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"error":"draining"}`)
			return
		}
		if f.blockOn.Load() {
			<-f.block
		}
		f.generates.Add(1)
		w.Header().Set("Content-Type", "application/json")
		if f.bigBody.Load() {
			body := fmt.Sprintf(`{"backend":%q,"pad":%q}`, f.id, strings.Repeat("x", 16<<10))
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Header().Set(serve.TimingHeader, "queue;dur=0.010, engine;dur=1.500")
			io.WriteString(w, body)
			return
		}
		fmt.Fprintf(w, `{"backend":%q}`, f.id)
	})
	mux.HandleFunc(serve.EndpointModels, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"models":[{"name":%q}]}`, f.id)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// newLB builds a balancer over the fakes (plus any extra URLs).
func newLB(t *testing.T, opt Options, fakes ...*fakeReplica) *LB {
	t.Helper()
	for _, f := range fakes {
		opt.Replicas = append(opt.Replicas, f.srv.URL)
	}
	balancer, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(balancer.Close)
	return balancer
}

// routeBody builds a generate body with geometry g (distinct g = distinct
// ring key).
func routeBody(g int) []byte {
	req := serve.GenerateRequest{Seed: 7, Route: []serve.RoutePoint{
		{T: 0, Lat: 48 + float64(g)*0.001, Lon: 16},
		{T: 1, Lat: 48 + float64(g)*0.001, Lon: 16.001},
	}}
	b, _ := json.Marshal(req)
	return b
}

// routeBodyOwnedBy searches for a body whose ring primary is the given
// replica URL — the ring is deterministic, so tests can aim traffic.
func routeBodyOwnedBy(t *testing.T, ring *Ring, owner string) []byte {
	t.Helper()
	for g := 0; g < 10000; g++ {
		var req serve.GenerateRequest
		body := routeBody(g)
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		if ring.Lookup(RouteKey(req.Model, req.Route, req.RouteCSV)) == owner {
			return body
		}
	}
	t.Fatal("no route found mapping to owner")
	return nil
}

func post(t *testing.T, lbSrv *httptest.Server, body []byte) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(lbSrv.URL+serve.EndpointGenerate, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(raw)
}

func TestRoutingIsConsistentAndSpreads(t *testing.T) {
	a, b, c := newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")
	balancer := newLB(t, Options{}, a, b, c)
	lbSrv := httptest.NewServer(balancer.Handler())
	defer lbSrv.Close()

	// Same route always lands on the same backend.
	var first string
	for i := 0; i < 10; i++ {
		resp, body := post(t, lbSrv, routeBody(1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if first == "" {
			first = body
		} else if body != first {
			t.Fatalf("same route split across backends: %q vs %q", body, first)
		}
	}

	// Distinct routes spread across the fleet.
	hit := make(map[string]bool)
	for g := 0; g < 48; g++ {
		_, body := post(t, lbSrv, routeBody(g))
		hit[body] = true
	}
	if len(hit) < 2 {
		t.Fatalf("48 distinct routes all landed on one backend: %v", hit)
	}
}

// TestRelayKeepsLengthAndTimings: the hop forwards a replica's
// Content-Length, so a large body is not re-chunked, and its stage timings
// with the balancer's own share appended.
func TestRelayKeepsLengthAndTimings(t *testing.T) {
	a := newFakeReplica(t, "a")
	a.bigBody.Store(true)
	balancer := newLB(t, Options{}, a)
	lbSrv := httptest.NewServer(balancer.Handler())
	defer lbSrv.Close()

	resp, body := post(t, lbSrv, routeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, Transfer-Encoding %v for a %d-byte body: the hop re-chunked it",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
	timing := resp.Header.Get(serve.TimingHeader)
	upstream, own, ok := strings.Cut(timing, ", lb;dur=")
	if !ok || upstream != "queue;dur=0.010, engine;dur=1.500" {
		t.Fatalf("%s = %q, want the replica's entries then lb;dur=", serve.TimingHeader, timing)
	}
	if ms, err := strconv.ParseFloat(own, 64); err != nil || ms < 0 || ms > 1000 {
		t.Fatalf("lb;dur=%q is not a plausible self time (%v)", own, err)
	}
}

func TestRetryOn503DrainingFailsOver(t *testing.T) {
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	balancer := newLB(t, Options{Retries: 1}, a, b)
	lbSrv := httptest.NewServer(balancer.Handler())
	defer lbSrv.Close()

	a.draining.Store(true)
	body := routeBodyOwnedBy(t, balancer.Ring(), a.srv.URL)
	resp, got := post(t, lbSrv, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if got != `{"backend":"b"}` {
		t.Fatalf("expected failover to b, got %s", got)
	}
	snap := balancer.Snapshot()
	if snap.Retries == 0 {
		t.Fatal("retry not counted")
	}
	// Retry-After from the draining 503 must keep a out of routing: the
	// same route now goes straight to b without another retry.
	before := snap.Replicas[a.srv.URL].Requests
	resp, _ = post(t, lbSrv, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if after := balancer.Snapshot().Replicas[a.srv.URL].Requests; after != before {
		t.Fatalf("draining replica hit again during its Retry-After backoff (%d -> %d)", before, after)
	}
}

func TestConnectErrorFailsOverAndEjects(t *testing.T) {
	alive := newFakeReplica(t, "alive")
	dead := newFakeReplica(t, "dead")
	deadURL := dead.srv.URL
	dead.srv.Close() // connection refused from now on

	balancer := newLB(t, Options{Retries: 2, FailAfter: 1, Replicas: []string{deadURL}}, alive)
	lbSrv := httptest.NewServer(balancer.Handler())
	defer lbSrv.Close()

	body := routeBodyOwnedBy(t, balancer.Ring(), deadURL)
	resp, got := post(t, lbSrv, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if got != `{"backend":"alive"}` {
		t.Fatalf("expected failover to alive, got %s", got)
	}
	healthy, ejections, ok := balancer.Replica(deadURL)
	if !ok || healthy || ejections != 1 {
		t.Fatalf("dead replica state: healthy=%v ejections=%d ok=%v; want ejected once", healthy, ejections, ok)
	}
}

func TestAllReplicasDownIsUpstreamFailure(t *testing.T) {
	dead := newFakeReplica(t, "dead")
	deadURL := dead.srv.URL
	dead.srv.Close()

	balancer := newLB(t, Options{Retries: 1, FailAfter: 1, Replicas: []string{deadURL}})
	lbSrv := httptest.NewServer(balancer.Handler())
	defer lbSrv.Close()

	resp, _ := post(t, lbSrv, routeBody(0))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if r := resp.Header.Get(serve.ReasonHeader); r != serve.ReasonUpstream {
		t.Fatalf("reason %q, want %q", r, serve.ReasonUpstream)
	}
}

func TestShedAtInFlightCap(t *testing.T) {
	f := newFakeReplica(t, "a")
	f.blockOn.Store(true)
	balancer := newLB(t, Options{MaxInFlight: 1, Retries: 1}, f)
	lbSrv := httptest.NewServer(balancer.Handler())
	defer lbSrv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Holds the only slot until the block channel is released.
		resp, err := http.Post(lbSrv.URL+serve.EndpointGenerate, "application/json",
			bytes.NewReader(routeBody(0)))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	// Wait until the slot is actually held.
	deadline := time.Now().Add(2 * time.Second)
	for balancer.replica(f.srv.URL).inFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired the in-flight slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _ := post(t, lbSrv, routeBody(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 shed", resp.StatusCode)
	}
	if r := resp.Header.Get(serve.ReasonHeader); r != serve.ReasonShed {
		t.Fatalf("reason %q, want %q", r, serve.ReasonShed)
	}
	close(f.block)
	wg.Wait()
	if balancer.Snapshot().Sheds == 0 {
		t.Fatal("shed not counted")
	}
}

func TestProbeEjectsAndReadmits(t *testing.T) {
	f := newFakeReplica(t, "a")
	balancer := newLB(t, Options{
		ProbeInterval: 10 * time.Millisecond,
		FailAfter:     2, OKAfter: 2,
	}, f)
	balancer.Start()

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if h, _, _ := balancer.Replica(f.srv.URL); h == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	waitFor(true, "initial health")
	f.healthy.Store(false)
	waitFor(false, "ejection after failed probes")
	if _, ej, _ := balancer.Replica(f.srv.URL); ej != 1 {
		t.Fatalf("ejections = %d, want 1", ej)
	}
	f.healthy.Store(true)
	waitFor(true, "readmission after healthy probes")
}

// Concurrent routing vs probe updates: run with -race. Probes flip health
// while clients route; every response must be a well-formed 200 or 503.
func TestConcurrentRoutingDuringProbeChurn(t *testing.T) {
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	balancer := newLB(t, Options{
		ProbeInterval: 2 * time.Millisecond,
		FailAfter:     1, OKAfter: 1, Retries: 2,
	}, a, b)
	balancer.Start()
	lbSrv := httptest.NewServer(balancer.Handler())
	defer lbSrv.Close()

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a.healthy.Store(i%2 == 0)
			b.draining.Store(i%3 == 0)
			time.Sleep(3 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := 0; g < 30; g++ {
				resp, err := http.Post(lbSrv.URL+serve.EndpointGenerate, "application/json",
					bytes.NewReader(routeBody(w*100+g)))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("unexpected status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
}

func TestHealthzAndVars(t *testing.T) {
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	balancer := newLB(t, Options{}, a, b)
	lbSrv := httptest.NewServer(balancer.Handler())
	defer lbSrv.Close()

	post(t, lbSrv, routeBody(0))

	resp, err := http.Get(lbSrv.URL + serve.EndpointHealth)
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Healthy != 2 || len(health.Replicas) != 2 {
		t.Fatalf("health = %+v", health)
	}

	resp, err = http.Get(lbSrv.URL + serve.EndpointVars)
	if err != nil {
		t.Fatal(err)
	}
	var vars VarsSnap
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if vars.Requests != 1 || len(vars.Replicas) != 2 {
		t.Fatalf("vars = %+v", vars)
	}
	total := int64(0)
	for _, r := range vars.Replicas {
		total += r.Requests
	}
	if total != 1 {
		t.Fatalf("per-replica requests sum to %d, want 1", total)
	}
}

func TestModelsForwarded(t *testing.T) {
	a := newFakeReplica(t, "a")
	balancer := newLB(t, Options{}, a)
	lbSrv := httptest.NewServer(balancer.Handler())
	defer lbSrv.Close()

	resp, err := http.Get(lbSrv.URL + serve.EndpointModels)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(raw) != `{"models":[{"name":"a"}]}` {
		t.Fatalf("status %d body %s", resp.StatusCode, raw)
	}
}

func TestBadRequestsRejectedLocally(t *testing.T) {
	a := newFakeReplica(t, "a")
	balancer := newLB(t, Options{MaxBody: 256}, a)
	lbSrv := httptest.NewServer(balancer.Handler())
	defer lbSrv.Close()

	resp, _ := post(t, lbSrv, []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid JSON: status %d, want 400", resp.StatusCode)
	}
	resp, _ = post(t, lbSrv, bytes.Repeat([]byte("x"), 1024))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if a.generates.Load() != 0 {
		t.Fatal("bad requests reached the backend")
	}
}
