package main

import (
	"fmt"
	"math"
	"time"

	"gendt/internal/core"
)

// maxFinalMSE bounds the last epoch's mean window MSE (normalized units). An
// untrained model sits near 0.08 and one epoch reaches about 0.04, so a
// trainer that has stopped learning fails verification.
const maxFinalMSE = 0.06

// epochs is a closed loop of training epochs, timestamped by the public
// AfterEpoch hook.
type epochs struct {
	secs  []float64
	mse   []float64
	dloss []float64
	steps int // training steps in one epoch: every step of every training run
}

// runEpochs trains a fresh fixture-shaped model on all of seqs until another
// epoch would not fit in dur, or maxEpochs have run (0 = no cap). The
// model's initial weights come from seed.
func runEpochs(cfg core.Config, seqs []*core.Sequence, seed int64, workers int, dur time.Duration, maxEpochs int) (epochs, error) {
	cfg.Seed, cfg.Workers, cfg.Epochs = seed, workers, 1<<20
	e := epochs{}
	for _, s := range seqs {
		e.steps += s.Len()
	}
	m := core.NewModel(cfg)
	start := time.Now()
	last := start
	_, err := m.TrainWithOptions(seqs, core.TrainOpts{AfterEpoch: func(ev core.EpochEvent) error {
		now := time.Now()
		e.secs = append(e.secs, now.Sub(last).Seconds())
		e.mse, e.dloss = append(e.mse, ev.MSE), append(e.dloss, ev.DLoss)
		last = now
		next := time.Duration(median(e.secs) * float64(time.Second))
		if now.Sub(start)+next > dur || (maxEpochs > 0 && len(e.secs) >= maxEpochs) {
			return core.ErrStopTraining
		}
		return nil
	}})
	return e, err
}

func (e epochs) verify() error {
	for i := range e.mse {
		if bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }; bad(e.mse[i]) || bad(e.dloss[i]) {
			return fmt.Errorf("epoch %d: mse %v, discriminator loss %v", i+1, e.mse[i], e.dloss[i])
		}
	}
	if final := e.mse[len(e.mse)-1]; final > maxFinalMSE {
		return fmt.Errorf("final mse %v above %v", final, maxFinalMSE)
	}
	return nil
}

// rate is the median over epochs of training steps per second.
func (e epochs) rate() float64 { return float64(e.steps) / median(e.secs) }

func runTrain(wl workload, seed int64, seconds float64, traced bool) (result, error) {
	res := result{metrics: values{}}
	if !traced {
		fx, setupS, err := setUp(needs{}, setupReps)
		if err != nil {
			return res, err
		}
		res.notes = append(res.notes, fx.provenance())
		e, err := runEpochs(fx.cfg, fx.train, seed, nproc(), secondsOf(seconds), 0)
		if err != nil {
			return res, err
		}
		ms := sortedMs(e.secs)
		res.metrics.merge(values{
			"setup_s": setupS, "steps_per_s": e.rate(),
			"p50_ms": percentile(ms, 50), "tail_ms": percentile(ms, wl.tailPct),
		})
		res.attempted = len(e.secs)
		res.notes = append(res.notes, fmt.Sprintf("%d epochs of %d steps; final mse %.5f; tail_ms is p%g (too few epochs for a tail)",
			len(e.secs), e.steps, e.mse[len(e.mse)-1], wl.tailPct))
		return verdict(res, e.verify()), nil
	}

	fx, err := buildFixture(needs{model: true, int8: true}, nil)
	if err != nil {
		return res, err
	}
	res.notes = append(res.notes, fx.provenance())
	res.metrics.merge(fx.split)
	res.metrics.merge(probeAll(fx))
	// Two epochs plain, two under the profiler, one on a single worker.
	plain, err := runEpochs(fx.cfg, fx.train, seed, nproc(), time.Hour, 2)
	if err != nil {
		return res, err
	}
	var prof epochs
	var perr error
	before := readProcStats()
	shares, err := profileCPU(func() { prof, perr = runEpochs(fx.cfg, fx.train, seed, nproc(), time.Hour, 2) })
	if err != nil {
		return res, err
	}
	if perr != nil {
		return res, perr
	}
	after := readProcStats()
	serial, err := runEpochs(fx.cfg, fx.train, seed, 1, time.Hour, 1)
	if err != nil {
		return res, err
	}
	res.metrics.merge(shares)
	res.metrics.merge(values{
		"train.epoch_s_p50":      median(plain.secs),
		"train.first_epoch_s":    plain.secs[0],
		"train.worker_scaling":   serial.secs[0] / plain.secs[0],
		"train.allocs_per_epoch": float64(after.mallocs-before.mallocs) / float64(len(prof.secs)),
		"train.final_mse":        plain.mse[len(plain.mse)-1],
		"trace.overhead_pct":     100 * (plain.rate() - prof.rate()) / plain.rate(),
	})
	res.metrics.merge(memMetrics(before, after, len(prof.secs)))
	res.attempted = len(plain.secs) + len(prof.secs) + len(serial.secs)
	res.notes = append(res.notes, "train has no spans: the AfterEpoch hook is its only boundary, and it is on in both modes")
	return verdict(res, plain.verify()), nil
}
