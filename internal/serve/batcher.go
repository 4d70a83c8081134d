package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"gendt/internal/core"
)

// ErrDraining is returned to requests that arrive while the batcher shuts
// down.
var ErrDraining = errors.New("serve: server draining")

// batchRun is what a request gets back from its batch: one series set per
// job, and when the batch entered and left the engine.
type batchRun struct {
	outs       [][][]float64
	start, end time.Time
}

// batchItem is one admitted request: its generation jobs (one per sample)
// and the channel its results come back on. done is buffered so the run
// loop never blocks on a caller that gave up (context timeout).
type batchItem struct {
	jobs []core.GenJob
	done chan batchRun
}

// Batcher is the micro-batching admission layer for one model. It never
// holds a request back for company: a request that reaches an idle batcher
// is dispatched at once, and requests that arrive while a batch executes
// queue up and leave together as the next batch, so coalescing grows with
// load and costs an idle server nothing. Because every job is generated from
// a clone seeded with the job's own seed, coalescing never changes results:
// a request's output is bit-identical whether it ran alone or shared a batch
// (see core.GenerateJobs).
type Batcher struct {
	model func() core.Generator // resolved per batch so hot reload takes effect
	max   int                   // max coalesced jobs per GenerateJobs call
	met   *Metrics

	ch chan *batchItem
	wg sync.WaitGroup

	// drain guards ch against send-after-close: Generate holds the read
	// side while admitting, Close takes the write side to flip closed.
	drain  sync.RWMutex
	closed bool

	// batchBuf/jobsBuf are the run loop's reusable batch assembly buffers
	// (only the single run goroutine touches them): steady-state batching
	// allocates nothing per batch beyond the results themselves.
	batchBuf []*batchItem
	jobsBuf  []core.GenJob
}

// DefaultMaxBatch bounds the jobs coalesced into one GenerateJobs call.
const DefaultMaxBatch = 64

// NewBatcher starts the admission loop.
func NewBatcher(model func() core.Generator, maxBatch int, met *Metrics) *Batcher {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	b := &Batcher{
		model: model,
		max:   maxBatch,
		met:   met,
		ch:    make(chan *batchItem, 4*maxBatch),
	}
	b.wg.Add(1)
	go b.run()
	return b
}

// Generate admits one request of len(jobs) samples and blocks until the
// batch executes or ctx expires. On ctx expiry the work may still execute
// (a batch in flight cannot be cancelled) but the result is discarded.
func (b *Batcher) Generate(ctx context.Context, jobs []core.GenJob) (batchRun, error) {
	item := &batchItem{jobs: jobs, done: make(chan batchRun, 1)}
	b.drain.RLock()
	if b.closed {
		b.drain.RUnlock()
		return batchRun{}, ErrDraining
	}
	select {
	case b.ch <- item:
		b.drain.RUnlock()
	case <-ctx.Done():
		b.drain.RUnlock()
		return batchRun{}, ctx.Err()
	}
	select {
	case run := <-item.done:
		return run, nil
	case <-ctx.Done():
		return batchRun{}, ctx.Err()
	}
}

// Close stops admission and drains: items already accepted are executed
// before the run loop exits. Safe to call more than once.
func (b *Batcher) Close() {
	b.drain.Lock()
	if !b.closed {
		b.closed = true
		close(b.ch)
	}
	b.drain.Unlock()
	b.wg.Wait()
}

func (b *Batcher) run() {
	defer b.wg.Done()
	for {
		item, ok := <-b.ch
		if !ok {
			return
		}
		batch := b.collect(item)
		b.execute(batch)
	}
}

// collect gathers the current batch: the triggering item plus everything
// already queued, up to the job cap. It does not wait.
func (b *Batcher) collect(first *batchItem) []*batchItem {
	batch := append(b.batchBuf[:0], first)
	defer func() { b.batchBuf = batch }()
	jobs := len(first.jobs)
	for jobs < b.max {
		if len(b.ch) == 0 {
			// The handler that woke this goroutine handed it its processor,
			// ahead of every other handler that is ready to run. Let those
			// reach the queue before calling it empty.
			runtime.Gosched()
		}
		select {
		case it, ok := <-b.ch:
			if !ok {
				return batch
			}
			batch = append(batch, it)
			jobs += len(it.jobs)
		default:
			return batch
		}
	}
	return batch
}

func (b *Batcher) execute(batch []*batchItem) {
	jobs := b.jobsBuf[:0]
	for _, it := range batch {
		jobs = append(jobs, it.jobs...)
	}
	b.jobsBuf = jobs
	start := time.Now()
	outs := b.model().GenerateJobs(jobs)
	end := time.Now()
	if b.met != nil {
		b.met.ObserveBatch(len(batch), len(jobs), end.Sub(start))
	}
	off := 0
	for i, it := range batch {
		it.done <- batchRun{outs: outs[off : off+len(it.jobs)], start: start, end: end}
		off += len(it.jobs)
		batch[i] = nil // don't retain delivered items across batches
	}
}
