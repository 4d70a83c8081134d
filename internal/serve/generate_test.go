package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"gendt/internal/core"
)

// newStubServer serves gen, a stub generator, as model "stub" over the
// fixture world: handler tests that need to hold, count or poison the
// engine's output.
func newStubServer(t *testing.T, gen *stubGen, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	gen.cfg = core.Config{Channels: core.RSRPRSRQChannels(), MaxCells: 6}
	opt.Registry = NewStaticRegistry("stub", gen)
	return newServer(t, opt)
}

// TestLoneRequestIsNotHeld: alone on an idle server, a request is dispatched
// at once. BatchWindow used to be a delay every request paid; a one-second
// value must not show in the latency.
func TestLoneRequestIsNotHeld(t *testing.T) {
	const window = time.Second
	_, ts := newServer(t, Options{BatchWindow: window})
	start := time.Now()
	code, _, raw := postGenerate(t, ts.URL, GenerateRequest{Seed: 1, Route: routePoints()})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if took := time.Since(start); took > window/10 {
		t.Fatalf("lone request took %v: it waited for nobody", took)
	}
}

// TestNonFiniteSeriesIs500: a NaN from the engine cannot be written as JSON.
// The client must get a 500 with a JSON error, counted as an error — not a
// 200 whose body stops where the NaN was.
func TestNonFiniteSeriesIs500(t *testing.T) {
	gen := newStubGen()
	gen.out[1][3] = math.NaN()
	s, ts := newStubServer(t, gen, Options{})
	code, _, raw := postGenerate(t, ts.URL, GenerateRequest{Seed: 1, Route: routePoints()})
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", code, raw)
	}
	var body map[string]string
	if err := json.Unmarshal([]byte(raw), &body); err != nil || !strings.Contains(body["error"], "NaN") {
		t.Fatalf("body %q is not a JSON error naming the value (%v)", raw, err)
	}
	if got := s.Metrics().Endpoint(EndpointGenerate).Errors.Load(); got != 1 {
		t.Fatalf("errors = %d, want 1", got)
	}
}

// TestServerTimingAccountsForLatency: a 200 names its five stages in order,
// they add up to the latency the handler itself observed (what is left is
// the body write), and each lands in its /debug/vars histogram. The sum is
// an accounting identity, but the write after it shares a machine with the
// rest of the test run, so any one of a few requests may show it.
func TestServerTimingAccountsForLatency(t *testing.T) {
	s, ts := newServer(t, Options{})
	body, err := json.Marshal(GenerateRequest{Seed: 5, Samples: 8, Route: routePoints()})
	if err != nil {
		t.Fatal(err)
	}
	latency := &s.Metrics().Endpoint(EndpointGenerate).Latency
	const attempts = 5
	var sumMs, latMs float64
	for n := int64(1); n <= attempts; n++ {
		pre := latency.Snapshot()
		resp, err := http.Post(ts.URL+EndpointGenerate, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var raw bytes.Buffer
		_, err = raw.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, %v: %s", resp.StatusCode, err, raw.String())
		}
		if resp.ContentLength != int64(raw.Len()) {
			t.Fatalf("Content-Length %d for a body of %d bytes", resp.ContentLength, raw.Len())
		}

		entries := strings.Split(resp.Header.Get(TimingHeader), ", ")
		if len(entries) != numStages {
			t.Fatalf("%s = %q, want %d entries", TimingHeader, resp.Header.Get(TimingHeader), numStages)
		}
		sumMs = 0
		for i, e := range entries {
			name, rest, _ := strings.Cut(e, ";")
			if name != stageNames[i] {
				t.Fatalf("entry %d is %q, want stage %q", i, e, stageNames[i])
			}
			if i == StagePrepare {
				desc, dur, _ := strings.Cut(rest, ";")
				if desc != "desc=hit" && desc != "desc=miss" {
					t.Fatalf("prepare entry %q does not say hit or miss", e)
				}
				rest = dur
			}
			ms, err := strconv.ParseFloat(strings.TrimPrefix(rest, "dur="), 64)
			if err != nil || ms < 0 {
				t.Fatalf("entry %q has no duration: %v", e, err)
			}
			sumMs += ms
		}
		// instrument observes the latency after the handler returns, which
		// can be after the client has the whole body.
		for deadline := time.Now().Add(5 * time.Second); latency.Snapshot().Count < n && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		latMs = latency.Snapshot().Sub(pre).Mean
		for i, name := range stageNames {
			if got := s.Metrics().Stages[i].Snapshot().Count; got != n {
				t.Fatalf("stage %s has %d observations after %d requests", name, got, n)
			}
		}
		// Each of the five durations is rounded to a microsecond.
		if sumMs <= latMs+0.005 && sumMs >= 0.9*latMs {
			return
		}
	}
	t.Fatalf("stages sum to %.3f ms, the handler observed %.3f ms (last of %d requests)", sumMs, latMs, attempts)
}
