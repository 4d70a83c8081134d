package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/lb"
	"gendt/internal/serve"
)

// The fixture every workload runs on: the gendt-serve default world, the
// paper's four KPIs, and a Hidden=100 model. Training width is pinned at 2 so
// the weights are the same on every machine; one epoch keeps a set-up short
// enough to repeat three times a run (weights do not change what a step costs).
const (
	worldName  = "A"
	worldSeed  = 1
	worldScale = 0.05
	modelName  = "gendt"
)

func fixtureConfig() core.Config {
	return core.Config{
		Channels: core.StandardChannels(),
		Hidden:   100, BatchLen: 12, StepLen: 6, MaxCells: 6,
		Epochs: 1, Seed: 1, Workers: 2,
	}
}

// Fixed loopback addresses: ring placement hashes the replica URL, so random
// ports would change the shard split from run to run.
var (
	lbAddr       = "127.0.0.1:18310"
	replicaAddrs = []string{"127.0.0.1:18311", "127.0.0.1:18312"}
)

// batchWindow mirrors gendt-serve's -batch-window default.
const batchWindow = 2 * time.Millisecond

// needs says which parts of the fixture a workload uses; set-up builds only
// those, so setup_s is what that workload's user waits for.
type needs struct {
	model bool // train the fixture model and freeze it to f32
	int8  bool // also freeze to int8
	fleet bool // boot two replicas behind the balancer
}

type fixture struct {
	ds    *dataset.Dataset
	cfg   core.Config
	train []*core.Sequence // prepared training runs
	all   []*core.Sequence // every run of the world, prepared
	model *core.Model
	f32   *core.InferModel
	int8  *core.InferModel
	fleet *fleet
	split values // seconds per set-up stage
}

// buildFixture is one set-up. tr is nil unless the fleet is to be traced.
func buildFixture(n needs, tr *tracer) (*fixture, error) {
	fx := &fixture{cfg: fixtureConfig(), split: values{}}
	stage := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		fx.split[name] = time.Since(t0).Seconds()
		return err
	}
	if err := stage("dataset.build_s", func() (err error) {
		fx.ds, err = dataset.NewByName(worldName, dataset.Spec{Seed: worldSeed, Scale: worldScale})
		return err
	}); err != nil {
		return nil, err
	}
	_ = stage("core.prepare_all_s", func() error {
		fx.train = core.PrepareAll(fx.ds.TrainRuns(), fx.cfg.Channels, fx.cfg.MaxCells)
		fx.all = core.PrepareAll(fx.ds.Runs, fx.cfg.Channels, fx.cfg.MaxCells)
		return nil
	})
	if !n.model {
		return fx, nil
	}
	if err := stage("core.train_fixture_s", func() error {
		fx.model = core.NewModel(fx.cfg)
		_, err := fx.model.TrainWithOptions(fx.train, core.TrainOpts{})
		return err
	}); err != nil {
		return nil, err
	}
	if err := stage("core.freeze_f32_s", func() (err error) {
		fx.f32, err = fx.model.Freeze(core.PrecisionF32)
		return err
	}); err != nil {
		return nil, err
	}
	if n.int8 {
		if err := stage("core.freeze_int8_s", func() (err error) {
			fx.int8, err = fx.model.Freeze(core.PrecisionInt8)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if n.fleet {
		if err := stage("fleet.boot_s", func() (err error) {
			fx.fleet, err = bootFleet(fx.f32, fx.ds, tr)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

// provenance names the world and the model the numbers were measured on.
func (fx *fixture) provenance() string {
	s := fmt.Sprintf("world %s seed %d scale %g fingerprint %016x", worldName, worldSeed, worldScale, fx.ds.Fingerprint())
	if fx.model != nil {
		s += fmt.Sprintf(", model fingerprint %016x (%d generator parameters)", fx.model.Fingerprint(), fx.model.ParamCount())
	}
	return s
}

func (fx *fixture) close() {
	if fx.fleet != nil {
		fx.fleet.close()
		fx.fleet = nil
	}
}

// setUp builds the fixture reps times, closing all but the last, and returns
// that one with the median set-up time.
func setUp(n needs, reps int) (*fixture, float64, error) {
	var fx *fixture
	var secs []float64
	for i := 0; i < reps; i++ {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		var err error
		if fx, err = buildFixture(n, nil); err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return fx, median(secs), nil
}

// fleet is the in-process serving tier: replicas built the way gendt-serve
// builds them (flag defaults), behind lb with default options.
type fleet struct {
	servers  []*serve.Server
	https    []*http.Server
	serving  sync.WaitGroup // the Serve goroutines; they return at Shutdown
	balancer *lb.LB
	url      string
}

func (f *fleet) listenAndServe(addr string, h http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.https = append(f.https, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(ln) // always ErrServerClosed: close shuts the server down
	}()
	return nil
}

func bootFleet(gen core.Generator, ds *dataset.Dataset, tr *tracer) (_ *fleet, err error) {
	f := &fleet{url: "http://" + lbAddr}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if tr != nil {
		gen = tracedGenerator{Generator: gen, tr: tr}
	}
	var urls []string
	for _, addr := range replicaAddrs {
		s := serve.New(serve.Options{
			Registry:    serve.NewStaticRegistry(modelName, gen),
			World:       serve.NewWorldFrom(ds),
			BatchWindow: batchWindow,
		})
		f.servers = append(f.servers, s)
		h := s.Handler()
		if tr != nil {
			h = traceHTTP(layerServe, tr, h)
		}
		if err := f.listenAndServe(addr, h); err != nil {
			return nil, err
		}
		urls = append(urls, "http://"+addr)
	}
	if f.balancer, err = lb.New(lb.Options{Replicas: urls}); err != nil {
		return nil, err
	}
	f.balancer.Start()
	h := f.balancer.Handler()
	if tr != nil {
		h = traceHTTP(layerLB, tr, h)
	}
	if err := f.listenAndServe(lbAddr, h); err != nil {
		return nil, err
	}
	for _, u := range append(urls, f.url) {
		if err := waitHealthy(u + serve.EndpointHealth); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func waitHealthy(url string) error {
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy: %w", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the listeners, waits for their handlers, then drains the
// replicas' batchers and the balancer's probe loops.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.https) - 1; i >= 0; i-- {
		if err := f.https[i].Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = f.https[i].Close()
		}
	}
	f.serving.Wait()
	if f.balancer != nil {
		f.balancer.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// nproc is the width of everything that scales with the machine: generation
// workers, training workers and load-generator connections.
func nproc() int { return runtime.NumCPU() }
