package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

// The latency histogram's JSON is read by gendt-rollout and dashboards:
// its keys and bucket names are part of the /debug/vars contract.
func TestHistogramSnapshotJSON(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{500 * time.Microsecond, time.Millisecond, 3 * time.Millisecond, 6 * time.Second} {
		h.Observe(d)
	}
	raw, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"count":4,"mean_ms":1501.125,"buckets_le_ms":{"+Inf":1,"1":2,"5":1}}`
	if string(raw) != want {
		t.Fatalf("snapshot JSON = %s, want %s", raw, want)
	}
	raw, _ = json.Marshal((&SizeHistogram{}).Snapshot())
	if want := `{"count":0,"mean":0,"buckets_le":{}}`; string(raw) != want {
		t.Fatalf("empty size snapshot JSON = %s, want %s", raw, want)
	}

	// The per-stage histograms sit under "stages", one per stage name, in
	// the same shape as an endpoint's latency.
	m := NewMetrics()
	m.Stages[StageQueue].Observe(3 * time.Millisecond)
	raw, err = json.Marshal(m.Snapshot().Stages)
	if err != nil {
		t.Fatal(err)
	}
	empty := `{"count":0,"mean_ms":0,"buckets_le_ms":{}}`
	want = `{"decode":` + empty + `,"encode":` + empty + `,"engine":` + empty + `,"prepare":` + empty +
		`,"queue":{"count":1,"mean_ms":3,"buckets_le_ms":{"5":1}}}`
	if string(raw) != want {
		t.Fatalf("stages JSON = %s, want %s", raw, want)
	}
	var vars map[string]json.RawMessage
	raw, _ = json.Marshal(m.Snapshot())
	if err := json.Unmarshal(raw, &vars); err != nil || vars["stages"] == nil {
		t.Fatalf("/debug/vars document has no \"stages\" key: %s (%v)", raw, err)
	}
}

func TestHistogramSnapQuantile(t *testing.T) {
	q := func(b map[string]int64, q float64) float64 { return HistogramSnap{Buckets: b}.Quantile(q) }
	buckets := map[string]int64{"10": 90, "50": 9, "200": 1}
	if got := q(buckets, 0.99); got != 50 {
		t.Errorf("p99 = %v, want 50 (rank 99 of 100 lands in le=50)", got)
	}
	if got := q(buckets, 0.5); got != 10 {
		t.Errorf("p50 = %v, want 10", got)
	}
	if got := q(map[string]int64{"10": 1}, 0.99); got != 10 {
		t.Errorf("single bucket p99 = %v, want 10", got)
	}
	if got := q(nil, 0.99); got != 0 {
		t.Errorf("empty histogram p99 = %v, want 0", got)
	}
	if got := q(map[string]int64{"10": 1, "+Inf": 99}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("overflow-dominated p99 = %v, want +Inf", got)
	}
}

func TestSnapSub(t *testing.T) {
	var h SizeHistogram
	h.Observe(1)
	h.Observe(3)
	pre := h.Snapshot()
	h.Observe(3)
	h.Observe(9)
	d := h.Snapshot().Sub(pre)
	want := SizeHistogramSnap{Count: 2, Mean: 6, Buckets: map[string]int64{"4": 1, "16": 1}}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("window = %+v, want %+v", d, want)
	}
	if got := h.Snapshot().BucketString(); got != "1:1 4:2 16:1" {
		t.Fatalf("BucketString = %q", got)
	}
	if again := h.Snapshot().Sub(h.Snapshot()); again.Count != 0 || again.Mean != 0 || len(again.Buckets) != 0 {
		t.Fatalf("empty window = %+v, want zero", again)
	}
}
