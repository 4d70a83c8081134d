package core

import (
	"fmt"
	"math/rand"

	"gendt/internal/nn"
)

// The frozen generation engine. Up to batchLanes same-model jobs step
// their frozen LSTMs together, so each layer-step runs one
// nn.FrozenDense.ApplyBatch — for f32 a GEMM that streams the weights once
// for the whole micro-batch instead of once per sequence — and each gate
// activation runs as one vector call over the multi-lane plane. This is
// the only window loop InferModel has: GenerateSeeded is the engine at
// width 1, GenerateJobs the engine at the width lanes() picks.
//
// A job's output is a pure function of (weights, Seq, Seed), whatever
// shares the engine with it, because nothing that affects a lane's
// arithmetic depends on the other lanes:
//   - the batched f32 kernel keeps the single-lane kernel's per-row
//     accumulation order exactly (see nn.GemmColF32), and the int8 matmul
//     is per lane;
//   - every lane owns its RNG, and the phase order (node slots outer /
//     timesteps inner, then per-timestep agg + residual) walks each lane's
//     draws in one fixed order: noise dims, modulation, dropout, residual
//     eps — the f64 path's schedule (paper §A.2);
//   - retired lanes are frozen via active masks — their state is not
//     touched and their RNG draws nothing — rather than padded with work.
//
// Lanes are sorted by descending sequence length, which makes window- and
// timestep-level retirement a prefix shrink: the per-step batched matmul
// covers only still-live lanes, with masks needed only in the node phase
// (a lane's visible-cell slot count is not monotonic in lane order).

// batchLanes is the engine's capacity in lanes. Eight lanes amortize the
// weight stream well past the point of diminishing returns for the model
// sizes in play while keeping the per-engine scratch small; larger request
// batches run as consecutive chunks.
const batchLanes = 8

// lanes is the width GenerateJobs chunks to. f32 chunks fill the engine:
// the batched GEMM is where its gain comes from (1.2× per lane-step at 8
// wide). int8 has no batched kernel — it measured 0.87× of per-lane and
// was removed (BENCH_infer.json) — so extra lanes would only serialize jobs
// that the worker pool can run side by side.
func (im *InferModel) lanes() int {
	if im.prec == PrecisionInt8 {
		return 1
	}
	return batchLanes
}

// batchLane is one job's private half of the engine: its RNG, its
// sequence, its accumulated output rows (also the lag history), and the
// per-lane scratch that has no batched equivalent.
type batchLane struct {
	src rand.Source64
	rng *rand.Rand
	seq *Sequence
	T   int

	out     [][]float64 // normalized rows generated so far
	backing []float64   // current window's output backing

	hAvg   []float32 // [BatchLen*Hidden] per-step node-state sums
	nCells []int
	row    []float32 // [nch] current output row
	bufA   []float32 // residual ping-pong buffers
	bufB   []float32
	lags   []float32 // [Lags*nch] residual lag assembly
}

// inferBatch is a pooled engine: the shared batched LSTM states, the
// shared output-head plane, and batchLanes lanes. Engines are fully
// re-initialized per call (RNGs reseeded, LSTM lanes reset per window), so
// reuse never leaks one job's randomness into another.
type inferBatch struct {
	node *nn.InferLSTMBatchState
	agg  *nn.InferLSTMBatchState

	headW int
	head  []float32 // [batchLanes][headW] aggOut / residual-head plane
	xq    []int8    // int8 activation scratch for the non-LSTM denses

	lanes    [batchLanes]*batchLane
	order    []int  // job index per lane, descending by sequence length
	act      []bool // node-phase per-(slot,t) active mask
	maxSlots []int  // per-lane visible-cell slot count, current window
	winL     []int  // per-lane window length
	rngs     []*rand.Rand
}

func (im *InferModel) newBatch() *inferBatch {
	cfg := im.Cfg
	// Dense outputs land in kernel-width-padded planes (pad8) so the f32
	// backend always takes the blocked column-major kernel; callers only
	// ever read the logical prefix.
	pad8 := func(n int) int { return (n + 7) &^ 7 }
	headW := pad8(2 * im.nch)
	if p := im.aggOut.PadRows; p > headW {
		headW = p
	}
	if im.res != nil {
		if p := im.res.head.PadRows; p > headW {
			headW = p
		}
	}
	eng := &inferBatch{
		node:     im.node.NewBatchState(batchLanes),
		agg:      im.agg.NewBatchState(batchLanes),
		headW:    headW,
		head:     make([]float32, batchLanes*headW),
		xq:       make([]int8, im.maxCols()),
		order:    make([]int, 0, batchLanes),
		act:      make([]bool, batchLanes),
		maxSlots: make([]int, batchLanes),
		winL:     make([]int, batchLanes),
		rngs:     make([]*rand.Rand, batchLanes),
	}
	for b := range eng.lanes {
		src := newSource64(0)
		ln := &batchLane{
			src:    src,
			rng:    rand.New(src),
			hAvg:   make([]float32, cfg.BatchLen*cfg.Hidden),
			nCells: make([]int, cfg.BatchLen),
			row:    make([]float32, im.nch),
		}
		if im.res != nil {
			w := im.res.in
			if im.res.hidden > w {
				w = im.res.hidden
			}
			for _, sg := range im.res.stages {
				if sg.d.PadRows > w {
					w = sg.d.PadRows
				}
			}
			ln.bufA = make([]float32, w)
			ln.bufB = make([]float32, w)
			ln.lags = make([]float32, cfg.Lags*im.nch)
		}
		eng.lanes[b] = ln
		eng.rngs[b] = ln.rng
	}
	return eng
}

// checkCellDim panics when seq was prepared with a different per-cell
// attribute width than the model was built for (PrepareOptions.LoadAware
// out of step with Config.LoadAware). The f64 path fails the same way
// inside nn.LSTM.Step; the frozen kernels would instead write the extra
// attribute into a noise slot or leave a stale one in place.
func (im *InferModel) checkCellDim(seq *Sequence) {
	want := im.Cfg.CellDim()
	for _, cells := range seq.Cells {
		for _, c := range cells {
			if len(c) != want {
				panic(fmt.Sprintf("core: cell-attribute dimension mismatch: sequence has %d per cell, model expects %d (LoadAware=%v)",
					len(c), want, im.Cfg.LoadAware))
			}
		}
	}
}

// generate runs len(jobs) (1..batchLanes) jobs in lockstep and stores each
// job's normalized [T][nch] series in norm at the job's own index.
func (im *InferModel) generate(jobs []GenJob, norm [][][]float64) {
	eng := im.batches.Get().(*inferBatch)
	nb := len(jobs)
	// Longest sequences first (stable insertion — at most batchLanes
	// entries): lane retirement then only ever shrinks the live prefix, so
	// the per-step matmuls shrink with it.
	eng.order = eng.order[:0]
	for i, j := range jobs {
		im.checkCellDim(j.Seq)
		k := len(eng.order)
		eng.order = append(eng.order, i)
		for ; k > 0 && jobs[eng.order[k-1]].Seq.Len() < j.Seq.Len(); k-- {
			eng.order[k] = eng.order[k-1]
		}
		eng.order[k] = i
	}
	for b := 0; b < nb; b++ {
		j := jobs[eng.order[b]]
		ln := eng.lanes[b]
		ln.seq = j.Seq
		ln.T = j.Seq.Len()
		ln.src.Seed(j.Seed)
		ln.out = make([][]float64, 0, ln.T)
	}
	for lo := 0; lo < eng.lanes[0].T; lo += im.Cfg.BatchLen {
		nbw := 0
		for nbw < nb && eng.lanes[nbw].T > lo {
			nbw++
		}
		im.batchWindow(eng, nbw, lo)
	}
	for b, ji := range eng.order {
		ln := eng.lanes[b]
		norm[ji] = ln.out
		ln.seq, ln.out, ln.backing = nil, nil, nil
	}
	im.batches.Put(eng)
}

// batchWindow generates one BatchLen window across the nbw still-live
// lanes (a descending-length prefix, so per-lane window lengths are
// non-increasing in lane order): per-slot node LSTM over the visible
// cells, mean-pooled into the aggregation LSTM and output head, plus the
// autoregressive Gaussian residual. LSTM state starts from zero at each
// window, matching the training regime.
func (im *InferModel) batchWindow(eng *inferBatch, nbw, lo int) {
	cfg := im.Cfg
	nch := im.nch
	H := cfg.Hidden
	cellDim := cfg.CellDim()

	Lw, slotsMax := 0, 0
	for b := 0; b < nbw; b++ {
		ln := eng.lanes[b]
		L := cfg.BatchLen
		if lo+L > ln.T {
			L = ln.T - lo
		}
		eng.winL[b] = L
		if L > Lw {
			Lw = L
		}
		ms := 0
		for t := 0; t < L; t++ {
			if n := len(ln.seq.Cells[lo+t]); n > ms {
				ms = n
			}
		}
		if ms == 0 {
			ms = 1
		}
		eng.maxSlots[b] = ms
		if ms > slotsMax {
			slotsMax = ms
		}
		hAvg := ln.hAvg[:L*H]
		for i := range hAvg {
			hAvg[i] = 0
		}
		nC := ln.nCells[:L]
		for t := range nC {
			nC[t] = 0
		}
	}

	// Node phase. Slot membership is NOT monotonic in lane order (a short
	// sequence can see more cells), so this is the one phase that needs
	// the per-(slot,t) active mask: masked lanes keep their state and
	// draw nothing — the batched matmul computes their (ignored) gates as
	// the price of staying dense.
	for slot := 0; slot < slotsMax; slot++ {
		last := -1
		for b := 0; b < nbw; b++ {
			if slot < eng.maxSlots[b] {
				eng.node.ResetLane(b)
				last = b
			}
		}
		for t := 0; t < Lw; t++ {
			hi := -1
			for b := 0; b <= last; b++ {
				a := slot < eng.maxSlots[b] && t < eng.winL[b]
				eng.act[b] = a
				if a {
					hi = b
				}
			}
			if hi < 0 {
				break // live set only shrinks with t within a slot
			}
			for b := 0; b <= hi; b++ {
				if !eng.act[b] {
					continue
				}
				ln := eng.lanes[b]
				cellsAtT := ln.seq.Cells[lo+t]
				in := eng.node.Input(b)
				if slot < len(cellsAtT) {
					for k, v := range cellsAtT[slot] {
						in[k] = float32(v)
					}
				} else {
					for k := 0; k < cellDim; k++ {
						in[k] = 0
					}
				}
				for z := 0; z < cfg.NoiseDim; z++ {
					in[cellDim+z] = float32(0.1 * ln.rng.NormFloat64())
				}
			}
			im.node.StepBatch(eng.node, hi+1, eng.act, eng.rngs)
			for b := 0; b <= hi; b++ {
				if !eng.act[b] {
					continue
				}
				ln := eng.lanes[b]
				cellsAtT := ln.seq.Cells[lo+t]
				if slot < len(cellsAtT) || (len(cellsAtT) == 0 && slot == 0) {
					sum := ln.hAvg[t*H : (t+1)*H]
					for j, v := range eng.node.H(b) {
						sum[j] += v
					}
					ln.nCells[t]++
				}
			}
		}
	}

	// Aggregation + residual phase. Retirement here is a pure prefix
	// shrink (window lengths are sorted), so no masks: each timestep's
	// batched agg step and output-head matmul cover exactly the live
	// lanes.
	for b := 0; b < nbw; b++ {
		eng.agg.ResetLane(b)
		eng.lanes[b].backing = make([]float64, eng.winL[b]*nch)
	}
	aggH, aggStride := eng.agg.HPlane()
	for t := 0; t < Lw; t++ {
		nbt := 0
		for nbt < nbw && eng.winL[nbt] > t {
			nbt++
		}
		if nbt == 0 {
			break
		}
		for b := 0; b < nbt; b++ {
			ln := eng.lanes[b]
			avg := ln.hAvg[t*H : (t+1)*H]
			if n := ln.nCells[t]; n > 0 {
				for j := range avg {
					avg[j] /= float32(n)
				}
			}
			copy(eng.agg.Input(b), avg)
		}
		im.agg.StepBatch(eng.agg, nbt, nil, eng.rngs)
		im.aggOut.ApplyBatch(aggH, aggStride, eng.head, eng.headW, nbt, eng.xq)
		for b := 0; b < nbt; b++ {
			ln := eng.lanes[b]
			head := eng.head[b*eng.headW : (b+1)*eng.headW]
			row := ln.row
			copy(row, head[:nch])
			if im.res != nil {
				// Lags over the generated history: ln.out holds every row
				// before lo+t, and the stored values are float32-rounded,
				// so the widen/narrow round-trip is lossless.
				lags := ln.lags
				for i := range lags {
					lags[i] = 0
				}
				for l := 0; l < cfg.Lags; l++ {
					src := lo + t - cfg.Lags + l
					if src < 0 {
						continue
					}
					from := ln.out[src]
					dst := lags[l*nch : (l+1)*nch]
					for c := 0; c < nch; c++ {
						dst[c] = float32(from[c])
					}
				}
				im.res.forwardLane(ln.rng, ln.bufA, ln.bufB, lags, head, eng.xq, ln.seq.Env[lo+t], row)
			}
			o := ln.backing[t*nch : (t+1)*nch]
			for c := range row {
				o[c] = float64(clamp01f32(row[c]))
			}
			ln.out = append(ln.out, o)
		}
	}
}
