package serve

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"gendt/internal/core"
)

// stubGen is a trivial core.Generator whose GenerateJobs returns a shared
// preallocated result per job: batcher tests exercise the
// admission layer, not a model. With enter set, every call first reports
// its job count there; with gate set, it then blocks until the gate yields.
type stubGen struct {
	out   [][]float64
	cfg   core.Config
	enter chan int
	gate  chan struct{}
}

func newStubGen() *stubGen {
	out := make([][]float64, 2)
	for c := range out {
		out[c] = make([]float64, 8)
	}
	return &stubGen{out: out}
}

func (g *stubGen) GenerateSeeded(seq *core.Sequence, seed int64) [][]float64 { return nil }
func (g *stubGen) GenerateJobs(jobs []core.GenJob) [][][]float64 {
	if g.enter != nil {
		g.enter <- len(jobs)
	}
	if g.gate != nil {
		<-g.gate
	}
	outs := make([][][]float64, len(jobs))
	for i := range outs {
		outs[i] = g.out
	}
	return outs
}
func (g *stubGen) DenormalizeSeries(norm [][]float64) [][]float64 { return norm }
func (g *stubGen) ModelConfig() core.Config                       { return g.cfg }
func (g *stubGen) ParamCount() int                                { return 0 }
func (g *stubGen) Precision() core.Precision                      { return core.PrecisionF32 }
func (g *stubGen) Fingerprint() uint64                            { return 0 }
func (g *stubGen) WithWorkers(n int) core.Generator               { return g }

// TestBatcherSteadyStateAllocs asserts the run loop's buffer pooling
// holds: over a no-op generator a request round-trip must stay within a
// small constant allocation budget, with no per-batch batch/jobs slice
// growth.
func TestBatcherSteadyStateAllocs(t *testing.T) {
	gen := newStubGen()
	bt := NewBatcher(func() core.Generator { return gen }, DefaultMaxBatch, nil)
	defer bt.Close()
	jobs := []core.GenJob{{Seed: 1}}
	ctx := context.Background()
	// AllocsPerRun's own untimed first call warms the pooled buffers.
	perOp := testing.AllocsPerRun(200, func() {
		if _, err := bt.Generate(ctx, jobs); err != nil {
			t.Fatal(err)
		}
	})
	// The four are irreducible per request: item, done channel, outs and
	// the stub's result header. An unpooled batchBuf or jobsBuf costs one
	// more each; AllocsPerRun's integer average hides stray runtime
	// allocations, so the bound is exact.
	if perOp > 4 {
		t.Fatalf("batcher steady state allocates %.0f objects/op, want <= 4 (buffer pooling regressed?)", perOp)
	}
}

func TestSizeHistogram(t *testing.T) {
	var h SizeHistogram
	for _, v := range []int{1, 1, 2, 3, 8, 9, 64, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	wantMean := (1.0 + 1 + 2 + 3 + 8 + 9 + 64 + 100) / 8.0
	if s.Mean != wantMean {
		t.Fatalf("mean = %g, want %g", s.Mean, wantMean)
	}
	want := map[string]int64{"1": 2, "2": 1, "4": 1, "8": 1, "16": 1, "64": 1, "+Inf": 1}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
}

// TestQueuedArrivalsLeaveTogether: requests admitted while a batch is in the
// engine wait for it and then leave as one GenerateJobs call.
func TestQueuedArrivalsLeaveTogether(t *testing.T) {
	gen := newStubGen()
	gen.enter, gen.gate = make(chan int), make(chan struct{})
	bt := NewBatcher(func() core.Generator { return gen }, DefaultMaxBatch, nil)
	defer bt.Close()
	runs := make(chan batchRun)
	generate := func() {
		run, err := bt.Generate(context.Background(), []core.GenJob{{Seed: 1}})
		if err != nil {
			t.Error(err)
		}
		runs <- run
	}

	go generate()
	if n := <-gen.enter; n != 1 {
		t.Fatalf("first call carries %d jobs, want the lone request", n)
	}
	// The first batch is now held inside the engine.
	const queued = 9
	for i := 0; i < queued; i++ {
		go generate()
	}
	for len(bt.ch) < queued {
		runtime.Gosched()
	}
	gen.gate <- struct{}{}
	first := <-runs
	if n := <-gen.enter; n != queued {
		t.Fatalf("second call carries %d jobs, want all %d queued requests in one", n, queued)
	}
	gen.gate <- struct{}{}
	for i := 0; i < queued; i++ {
		if run := <-runs; !run.start.After(first.end) || len(run.outs) != 1 {
			t.Fatalf("queued request got %d series sets from a batch started %v, want 1 after %v", len(run.outs), run.start, first.end)
		}
	}
}
