package main

import (
	"math/rand"
	"time"

	"gendt/internal/core"
	"gendt/internal/metrics"
	"gendt/internal/nn"
)

// Layer probes: direct timed calls into nn and core that do not depend on
// the workload. Every traced run makes them, on the full fixture, so the
// per-layer table reads the same way on every workload.

// timeOp returns the median over reps of the mean time of one op, in
// nanoseconds; each rep runs op for about 20 ms.
func timeOp(reps int, op func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if d := time.Since(t0); d >= 20*time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 2
	}
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// probeKernels times the three kernels the frozen engine spends its matmul
// time in, at the node LSTM's gate shape: 4H rows by (cell attributes + noise
// + H) columns. Six of a step's seven gate products have this shape. cfg is
// the trained model's, with its defaults filled in.
func probeKernels(cfg core.Config) values {
	const lanes = engineLanes
	rows, cols := 4*cfg.Hidden, cfg.CellDim()+cfg.NoiseDim+cfg.Hidden
	rows8 := (rows + 7) &^ 7
	rng := rand.New(rand.NewSource(1))
	f32s := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = rng.Float32()*2 - 1
		}
		return s
	}
	wt, bias := f32s(rows8*cols), f32s(rows8)
	x, y := f32s(lanes*cols), make([]float32, lanes*rows8)
	q, xq := make([]int8, rows*cols), make([]int8, cols)
	for i := range q {
		q[i] = int8(rng.Intn(255) - 127)
	}
	xScale := nn.QuantizeVecInt8(x[:cols], xq)
	rowScale := f32s(rows)

	v := values{}
	v["nn.gemv_f32_ns"] = timeOp(5, func() { nn.GemvColF32(wt, rows8, cols, x, bias, y) })
	v["nn.gemm_f32x8_ns"] = timeOp(5, func() { nn.GemmColF32(wt, rows8, cols, x, cols, bias, y, rows8, lanes) })
	v["nn.matvec_int8_ns"] = timeOp(5, func() { nn.MatVecInt8(q, rows, cols, xq, rowScale, xScale, y) })
	// Computed, not measured: one multiply-add per weight, and every operand
	// moved once (weights, input, bias or row scales, output).
	v["nn.gate_flop"] = float64(2 * rows * cols)
	v["nn.gate_bytes_f32"] = float64(4 * (rows8*cols + cols + 2*rows8))
	v["nn.gate_bytes_int8"] = float64(rows*cols + cols + 4*2*rows)
	v["nn.gemv_f32_gflops"] = v["nn.gate_flop"] / v["nn.gemv_f32_ns"]
	return v
}

// bulkJobs is the job list of one bulk call: jobsPerCall jobs over the
// world's routes in turn, seeded DeriveSeed(seed, call*jobsPerCall+j).
func bulkJobs(seqs []*core.Sequence, seed int64, call int) []core.GenJob {
	jobs := make([]core.GenJob, jobsPerCall)
	for j := range jobs {
		k := call*jobsPerCall + j
		jobs[j] = core.GenJob{Seq: seqs[k%len(seqs)], Seed: core.DeriveSeed(seed, k)}
	}
	return jobs
}

func jobSteps(jobs []core.GenJob) int {
	n := 0
	for _, j := range jobs {
		n += j.Seq.Len()
	}
	return n
}

// laneFill is the share of stepped lane slots that carry a live sequence when
// jobs run in chunks of lanes: a chunk steps until its longest lane ends.
func laneFill(jobs []core.GenJob, lanes int) float64 {
	useful, stepped := 0, 0
	for lo := 0; lo < len(jobs); lo += lanes {
		hi := lo + lanes
		if hi > len(jobs) {
			hi = len(jobs)
		}
		longest := 0
		for _, j := range jobs[lo:hi] {
			useful += j.Seq.Len()
			if j.Seq.Len() > longest {
				longest = j.Seq.Len()
			}
		}
		stepped += longest * (hi - lo)
	}
	return float64(useful) / float64(stepped)
}

// engineLanes is the width of core's lockstep batched engine.
const engineLanes = 8

// probeEngine times GenerateJobs on one worker: one job (the job-at-a-time
// path) and engineLanes jobs of equal length (one full lockstep chunk), at
// both precisions, in nanoseconds per lane-step.
func probeEngine(fx *fixture) values {
	v := values{}
	seq := fx.all[0]
	// callSecs is the median time of reps calls, after one to warm the
	// state pools.
	callSecs := func(gen core.Generator, jobs []core.GenJob, reps int) float64 {
		gen.GenerateJobs(jobs)
		per := make([]float64, reps)
		for r := range per {
			t0 := time.Now()
			gen.GenerateJobs(jobs)
			per[r] = time.Since(t0).Seconds()
		}
		return median(per)
	}
	stepNs := func(gen core.Generator, lanes, reps int) float64 {
		jobs := make([]core.GenJob, lanes)
		for i := range jobs {
			jobs[i] = core.GenJob{Seq: seq, Seed: core.DeriveSeed(7, i)}
		}
		return 1e9 * callSecs(gen.WithWorkers(1), jobs, reps) / float64(lanes*seq.Len())
	}
	v["core.f32_x1_step_ns"] = stepNs(fx.f32, 1, 9)
	v["core.f32_x8_step_ns"] = stepNs(fx.f32, engineLanes, 5)
	v["core.int8_x1_step_ns"] = stepNs(fx.int8, 1, 5)
	v["core.int8_x8_step_ns"] = stepNs(fx.int8, engineLanes, 3)
	v["core.batch_gain_f32"] = v["core.f32_x1_step_ns"] / v["core.f32_x8_step_ns"]
	v["core.batch_gain_int8"] = v["core.int8_x1_step_ns"] / v["core.int8_x8_step_ns"]

	// A bulk call on all workers against one worker, and what it allocates.
	jobs := bulkJobs(fx.all, 7, 0)
	wide := fx.f32.WithWorkers(nproc())
	v["core.worker_scaling"] = callSecs(fx.f32.WithWorkers(1), jobs, 3) / callSecs(wide, jobs, 3)
	before := readProcStats()
	wide.GenerateJobs(jobs)
	v["core.allocs_per_seq"] = float64(readProcStats().mallocs-before.mallocs) / float64(len(jobs))
	v["core.lane_fill"] = laneFill(jobs, engineLanes)
	return v
}

// probeQuality is the mean per-channel histogram Wasserstein distance, in
// normalized units, between generated series and the simulator's truth on the
// held-out routes. Informational: it says the fixture is a model, not noise.
func probeQuality(fx *fixture) values {
	test := core.PrepareAll(fx.ds.TestRuns(), fx.cfg.Channels, fx.cfg.MaxCells)
	hwd := func(gen core.Generator) float64 {
		nch := len(fx.cfg.Channels)
		got, want := make([][]float64, nch), make([][]float64, nch)
		for i, seq := range test {
			norm := gen.GenerateSeeded(seq, core.DeriveSeed(11, i))
			for t := range norm {
				for c := 0; c < nch; c++ {
					got[c] = append(got[c], norm[t][c])
					want[c] = append(want[c], seq.KPIs[t][c])
				}
			}
		}
		sum := 0.0
		for c := 0; c < nch; c++ {
			d, err := metrics.HWD(got[c], want[c], 50)
			if err != nil {
				return 0 // no held-out samples: nothing to compare
			}
			sum += d
		}
		return sum / float64(nch)
	}
	return values{"quality.f32_hwd": hwd(fx.f32), "quality.int8_hwd": hwd(fx.int8)}
}

func (v values) merge(o values) {
	for k, x := range o {
		v[k] = x
	}
}
