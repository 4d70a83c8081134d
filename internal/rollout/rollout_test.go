package rollout

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gendt/internal/lb"
	"gendt/internal/serve"
)

const testToken = "test-admin-token"

// fakeReplica is a stand-in gendt-serve: it answers /healthz, /admin/reload
// (serving whatever the shared model file currently holds), and /v1/models
// with the "fingerprint" read from that file. The model files in these
// tests are plain strings — the rollout controller never parses them, it
// only moves bytes and trusts the replica's reload/fingerprint reporting.
type fakeReplica struct {
	srv        *httptest.Server
	modelPath  string
	reloads    atomic.Int64
	failReload atomic.Bool
	serving    atomic.Value // string: contents at last reload
}

func newFakeReplica(t *testing.T, modelPath string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{modelPath: modelPath}
	f.serving.Store(mustRead(t, modelPath))
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc(serve.EndpointReload, func(w http.ResponseWriter, _ *http.Request) {
		f.reloads.Add(1)
		if f.failReload.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(serve.ReloadResponse{
				Models:   []serve.ReloadStatus{{Name: "default", Error: "checksum mismatch"}},
				Failures: 1,
			})
			return
		}
		b, err := os.ReadFile(f.modelPath)
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(serve.ReloadResponse{
				Models:   []serve.ReloadStatus{{Name: "default", Error: err.Error()}},
				Failures: 1,
			})
			return
		}
		f.serving.Store(string(b))
		json.NewEncoder(w).Encode(serve.ReloadResponse{Models: []serve.ReloadStatus{{Name: "default"}}})
	})
	mux.HandleFunc(serve.EndpointModels, func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"models": []serve.ModelInfo{{Name: "default", Fingerprint: f.serving.Load().(string)}},
		})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fixture wires N fake replicas behind a real LB and a shared model file.
type fixture struct {
	lbSrv    *httptest.Server
	balancer *lb.LB
	reps     []*fakeReplica
	model    string // shared serving path
	cand     string // candidate path
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	dir := t.TempDir()
	model := filepath.Join(dir, "model.json")
	cand := filepath.Join(dir, "candidate.json")
	if err := os.WriteFile(model, []byte("old-model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cand, []byte("new-model"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := &fixture{model: model, cand: cand}
	var urls []string
	for i := 0; i < n; i++ {
		r := newFakeReplica(t, model)
		f.reps = append(f.reps, r)
		urls = append(urls, r.srv.URL)
	}
	balancer, err := lb.New(lb.Options{Replicas: urls, AdminToken: testToken})
	if err != nil {
		t.Fatal(err)
	}
	f.balancer = balancer
	f.lbSrv = httptest.NewServer(balancer.Handler())
	t.Cleanup(f.lbSrv.Close)
	return f
}

func (f *fixture) options() Options {
	var urls []string
	for _, r := range f.reps {
		urls = append(urls, r.srv.URL)
	}
	return Options{
		LB: f.lbSrv.URL, AdminToken: testToken, Replicas: urls,
		ModelPath: f.model, Candidate: f.cand,
		WantFingerprint: "new-model",
		BudgetWindow:    time.Millisecond,
		Sleep:           func(time.Duration) {},
	}
}

func run(t *testing.T, opt Options) error {
	t.Helper()
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return c.Run(ctx)
}

func TestRolloutPromotesAllReplicas(t *testing.T) {
	f := newFixture(t, 3)
	var gated []string
	opt := f.options()
	opt.Gate = func(_ context.Context, rep string) error {
		gated = append(gated, rep)
		return nil
	}
	if err := run(t, opt); err != nil {
		t.Fatalf("rollout failed: %v", err)
	}
	if got := mustRead(t, f.model); got != "new-model" {
		t.Fatalf("serving path holds %q, want candidate", got)
	}
	if got := mustRead(t, f.model+".prev"); got != "old-model" {
		t.Fatalf("backup holds %q, want previous model", got)
	}
	if len(gated) != 3 {
		t.Fatalf("gate ran %d times, want 3", len(gated))
	}
	for i, r := range f.reps {
		if n := r.reloads.Load(); n != 1 {
			t.Errorf("replica %d reloaded %d times, want 1", i, n)
		}
		if s := r.serving.Load().(string); s != "new-model" {
			t.Errorf("replica %d serving %q, want new-model", i, s)
		}
	}
	st := f.balancer.RolloutState()
	if st.Phase != lb.RolloutDone || st.Promoted != 3 {
		t.Fatalf("rollout state = %+v, want done 3/3", st)
	}
	// Every replica must be back in rotation.
	for name, rs := range f.balancer.Snapshot().Replicas {
		if rs.Draining || !rs.Member {
			t.Errorf("replica %s left draining=%v member=%v", name, rs.Draining, rs.Member)
		}
	}
}

func TestGateFailureRollsBack(t *testing.T) {
	f := newFixture(t, 3)
	opt := f.options()
	opt.Gate = func(_ context.Context, rep string) error {
		if rep == f.reps[1].srv.URL {
			return fmt.Errorf("dist/RSRP/ks observed above limit")
		}
		return nil
	}
	err := run(t, opt)
	if err == nil {
		t.Fatal("rollout passed, want halt on gate failure")
	}
	if !strings.Contains(err.Error(), "dist/RSRP/ks") {
		t.Fatalf("error %v does not carry the gate failure", err)
	}
	if got := mustRead(t, f.model); got != "old-model" {
		t.Fatalf("serving path holds %q after rollback, want old-model", got)
	}
	// Replica 0 was promoted then rolled back (2 reloads); replica 1
	// reloaded for promotion and again for rollback; replica 2 untouched.
	if n := f.reps[0].reloads.Load(); n != 2 {
		t.Errorf("replica 0 reloaded %d times, want 2 (promote + rollback)", n)
	}
	if n := f.reps[2].reloads.Load(); n != 0 {
		t.Errorf("replica 2 reloaded %d times, want 0", n)
	}
	for i := range f.reps {
		if s := f.reps[i].serving.Load().(string); s != "old-model" {
			t.Errorf("replica %d serving %q after rollback, want old-model", i, s)
		}
	}
	st := f.balancer.RolloutState()
	if st.Phase != lb.RolloutRolledBack {
		t.Fatalf("rollout phase %q, want rolled_back", st.Phase)
	}
	if !strings.Contains(st.Reason, "dist/RSRP/ks") {
		t.Fatalf("rollback reason %q does not carry the gate failure", st.Reason)
	}
	for name, rs := range f.balancer.Snapshot().Replicas {
		if rs.Draining {
			t.Errorf("replica %s left draining after rollback", name)
		}
	}
}

func TestReloadFailureRollsBack(t *testing.T) {
	f := newFixture(t, 2)
	f.reps[0].failReload.Store(true)
	err := run(t, f.options())
	if err == nil {
		t.Fatal("rollout passed, want halt on reload failure")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("error %v does not carry the reload failure", err)
	}
	if got := mustRead(t, f.model); got != "old-model" {
		t.Fatalf("serving path holds %q after rollback, want old-model", got)
	}
	if st := f.balancer.RolloutState(); st.Phase != lb.RolloutRolledBack {
		t.Fatalf("rollout phase %q, want rolled_back", st.Phase)
	}
}

func TestFingerprintMismatchRollsBack(t *testing.T) {
	f := newFixture(t, 2)
	opt := f.options()
	opt.WantFingerprint = "0000deadbeef0000"
	err := run(t, opt)
	if err == nil {
		t.Fatal("rollout passed, want halt on fingerprint mismatch")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("error %v is not a fingerprint failure", err)
	}
	if got := mustRead(t, f.model); got != "old-model" {
		t.Fatalf("serving path holds %q after rollback, want old-model", got)
	}
}

func TestBadAdminTokenFailsBeforeTouchingModels(t *testing.T) {
	f := newFixture(t, 2)
	opt := f.options()
	opt.AdminToken = "wrong"
	err := run(t, opt)
	if err == nil {
		t.Fatal("rollout passed with a bad admin token")
	}
	// The candidate was staged and then restored by the rollback; no
	// replica may have picked it up.
	for i := range f.reps {
		if s := f.reps[i].serving.Load().(string); s != "old-model" {
			t.Errorf("replica %d serving %q, want old-model", i, s)
		}
	}
	if got := mustRead(t, f.model); got != "old-model" {
		t.Fatalf("serving path holds %q, want old-model restored", got)
	}
}

func TestCheckBudget(t *testing.T) {
	base := budgetBaseline{requests: 1000, errRate: 0.01, p99ms: 100}
	cases := []struct {
		name string
		w    windowStats
		ok   bool
	}{
		{"healthy", windowStats{requests: 100, errRate: 0.01, p99ms: 100}, true},
		{"err within budget", windowStats{requests: 100, errRate: 0.02, p99ms: 100}, true},
		{"err breach", windowStats{requests: 100, errRate: 0.5, p99ms: 100}, false},
		{"p99 within factor", windowStats{requests: 100, errRate: 0, p99ms: 250}, true},
		{"p99 breach", windowStats{requests: 100, errRate: 0, p99ms: 500}, false},
		{"tiny window trivially passes", windowStats{requests: 3, errRate: 1, p99ms: 5000}, true},
	}
	for _, tc := range cases {
		err := checkBudget(base, tc.w, 0.02, 3.0, 10)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkBudget = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// A cold baseline (no traffic) must not enforce a p99 cap.
	cold := budgetBaseline{}
	if err := checkBudget(cold, windowStats{requests: 100, errRate: 0, p99ms: 5000}, 0.02, 3.0, 10); err != nil {
		t.Errorf("cold baseline enforced p99 cap: %v", err)
	}
}

func TestWindowFromDeltas(t *testing.T) {
	pre := lb.VarsSnap{Requests: 100, Errors: 1,
		Latency: serve.HistogramSnap{Buckets: map[string]int64{"10": 99, "50": 1}}}
	post := lb.VarsSnap{Requests: 300, Errors: 5,
		Latency: serve.HistogramSnap{Buckets: map[string]int64{"10": 150, "50": 150}}}
	w := windowFrom(pre, post)
	if w.requests != 200 {
		t.Fatalf("window requests = %d, want 200", w.requests)
	}
	if w.errRate != 0.02 {
		t.Fatalf("window err rate = %v, want 0.02", w.errRate)
	}
	// Window histogram: 51 in le=10, 149 in le=50 → p99 lands in le=50.
	if w.p99ms != 50 {
		t.Fatalf("window p99 = %v, want 50", w.p99ms)
	}
}
