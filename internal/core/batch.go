package core

import (
	"fmt"
	"math/rand"

	"gendt/internal/nn"
)

// The frozen generation engine. Up to batchLanes same-model jobs step
// their frozen LSTMs together: each gate activation runs as one vector call
// over the multi-lane plane, the stochastic modulation of every live lane
// is one sweep, the residual head runs over the live prefix, and each f32
// layer-step is one nn.FrozenDense.ApplyBatch GEMM that streams the weights
// once for the whole micro-batch instead of once per sequence (the int8
// matmul is per lane). This is the only window loop InferModel has:
// GenerateSeeded is the engine at width 1, GenerateJobs the engine in
// chunks of at most batchLanes, whatever the precision.
//
// A job's output is a pure function of (weights, Seq, Seed), whatever
// shares the engine with it, because nothing that affects a lane's
// arithmetic depends on the other lanes:
//   - the batched f32 kernel keeps the single-lane kernel's per-row
//     accumulation order exactly (see nn.GemmColF32), and the int8 matmul
//     is per lane;
//   - every lane owns its random stream (an nn.LaneSource, math/rand's
//     seeded generator drawn a block at a time), and the phase order (node
//     slots outer / timesteps inner, then per-timestep agg + residual) walks
//     each lane's draws in one fixed order: noise dims, modulation, dropout,
//     residual eps — the f64 path's schedule (paper §A.2). Steps that draw
//     for several lanes (the modulation sweep, the residual head) take each
//     lane's values from that lane's stream only, so the order in which
//     lanes are visited is free;
//   - retired lanes are frozen via active masks — their state is not
//     touched and their RNG draws nothing — rather than padded with work.
//
// Lanes are sorted by descending sequence length, which makes window- and
// timestep-level retirement a prefix shrink: the per-step batched matmul
// covers only still-live lanes, with masks needed only in the node phase
// (a lane's visible-cell slot count is not monotonic in lane order).

// batchLanes is the engine's capacity in lanes, and the widest chunk
// GenerateJobs cuts. Eight lanes amortize the f32 weight stream well past the point
// of diminishing returns for the model sizes in play (1.6× per lane-step
// over width 1; int8, whose matmul stays per lane, gets the 1.1–1.2× of the
// plane-wide activations, the modulation sweep and the lockstep residual
// head) while keeping the per-engine scratch small; larger request batches
// run as consecutive chunks.
const batchLanes = 8

// batchLane is one job's private half of the engine: its random stream,
// its sequence, its output (also the lag history), and the per-lane scratch
// that has no batched equivalent.
type batchLane struct {
	rng *rand.Rand // NormFloat64 draws, on the lane's source in inferBatch.srcs
	seq *Sequence
	T   int

	out []float64 // [T*nch] normalized rows, one backing per job

	hAvg   []float32 // [BatchLen*Hidden] per-step node-state sums
	nCells []int
	row    []float32 // [nch] current output row
}

// inferBatch is a pooled engine: the shared batched LSTM states, the
// shared output-head and residual planes, and batchLanes lanes. Engines are
// fully re-initialized per call (RNGs reseeded, LSTM lanes reset per
// window), so reuse never leaks one job's randomness into another.
type inferBatch struct {
	node *nn.InferLSTMBatchState
	agg  *nn.InferLSTMBatchState

	headW int
	head  []float32 // [batchLanes][headW] aggOut / residual-head plane
	xq    []int8    // int8 activation scratch for the non-LSTM denses

	resW       int
	resA, resB []float32 // [batchLanes][resW] residual body ping-pong planes
	drop       []float64 // [res.hidden] one lane's dropout uniforms

	lanes    [batchLanes]*batchLane
	order    []int  // job index per lane, descending by sequence length
	act      []bool // node-phase per-(slot,t) active mask
	maxSlots []int  // per-lane visible-cell slot count, current window
	winL     []int  // per-lane window length

	// srcs is each lane's random stream: the bulk uniform fills draw from
	// it directly, the lane's rand.Rand (NormFloat64) sits on top of it.
	srcs []*nn.LaneSource
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
		srcs:     make([]*nn.LaneSource, batchLanes),
	}
	if im.res != nil {
		w := im.res.in
		for _, sg := range im.res.stages {
			if sg.d.PadRows > w {
				w = sg.d.PadRows
			}
		}
		eng.resW = w
		eng.resA = make([]float32, batchLanes*w)
		eng.resB = make([]float32, batchLanes*w)
		eng.drop = make([]float64, im.res.hidden)
	}
	for b := range eng.lanes {
		eng.srcs[b] = nn.NewLaneSource(0)
		eng.lanes[b] = &batchLane{
			rng:    rand.New(eng.srcs[b]),
			hAvg:   make([]float32, cfg.BatchLen*cfg.Hidden),
			nCells: make([]int, cfg.BatchLen),
			row:    make([]float32, im.nch),
		}
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
// job's normalized series, row-major [T*nch] in one allocation, in norm at
// the job's own index.
func (im *InferModel) generate(jobs []GenJob, norm [][]float64) {
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
		eng.srcs[b].Seed(j.Seed)
		ln.out = make([]float64, ln.T*im.nch)
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
		ln.seq, ln.out = nil, nil
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
			im.node.StepBatch(eng.node, hi+1, eng.act, eng.srcs)
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
	// batched agg step, output-head matmul and residual head cover exactly
	// the live lanes.
	for b := 0; b < nbw; b++ {
		eng.agg.ResetLane(b)
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
		im.agg.StepBatch(eng.agg, nbt, nil, eng.srcs)
		im.aggOut.ApplyBatch(aggH, aggStride, eng.head, eng.headW, nbt, eng.xq)
		for b := 0; b < nbt; b++ {
			copy(eng.lanes[b].row, eng.head[b*eng.headW:])
		}
		if im.res != nil {
			im.res.forward(eng, nbt, lo+t)
		}
		for b := 0; b < nbt; b++ {
			ln := eng.lanes[b]
			o := ln.out[(lo+t)*nch : (lo+t+1)*nch]
			for c, v := range ln.row {
				o[c] = float64(clamp01f32(v))
			}
		}
	}
}

// forward adds timestep at's sampled, soft-bounded residual into the row of
// each of the nbt live lanes, the body and head denses running once over
// the live prefix on the engine's shared planes. Each lane's stream gives up
// the same draws as ResGen.Forward, in its order: noiseDim normals, one
// uniform per dropout element, one normal per channel.
func (r *inferRes) forward(eng *inferBatch, nbt, at int) {
	w := eng.resW
	for b := 0; b < nbt; b++ {
		ln := eng.lanes[b]
		x := eng.resA[b*w : b*w+r.in]
		k := 0
		for _, v := range ln.seq.Env[at] {
			x[k] = float32(v)
			k++
		}
		for i := 0; i < r.noiseDim; i++ {
			x[k] = float32(ln.rng.NormFloat64())
			k++
		}
		// Lags over the generated history, oldest first, zero before the
		// sequence start. The rows before at are contiguous in ln.out, and
		// the stored values are float32-rounded, so narrowing is lossless.
		lags := x[k:]
		first := at - r.lags
		pad := 0
		if first < 0 {
			pad, first = -first*r.nch, 0
		}
		for i := range lags[:pad] {
			lags[i] = 0
		}
		for i, v := range ln.out[first*r.nch : at*r.nch] {
			lags[pad+i] = float32(v)
		}
	}
	cur, nxt := eng.resA, eng.resB
	for _, sg := range r.stages {
		sg.d.ApplyBatch(cur, w, nxt, w, nbt, eng.xq)
		if sg.alpha != 0 {
			for b := 0; b < nbt; b++ {
				y := nxt[b*w : b*w+sg.d.Rows]
				for i, v := range y {
					if v < 0 {
						y[i] = v * sg.alpha
					}
				}
			}
		}
		cur, nxt = nxt, cur
	}
	if r.dropP > 0 {
		// MC dropout stays active at generation time (paper §6.2.1).
		keep := 1 - r.dropP
		keep32 := float32(keep)
		for b := 0; b < nbt; b++ {
			eng.srcs[b].Float64s(eng.drop)
			h := cur[b*w : b*w+r.hidden]
			for i, u := range eng.drop {
				if u < keep {
					h[i] /= keep32
				} else {
					h[i] = 0
				}
			}
		}
	}
	r.head.ApplyBatch(cur, w, eng.head, eng.headW, nbt, eng.xq)
	for b := 0; b < nbt; b++ {
		ln := eng.lanes[b]
		head := eng.head[b*eng.headW:]
		for c := 0; c < r.nch; c++ {
			mu := head[c]
			ls := head[r.nch+c]
			if ls < -6 {
				ls = -6
			} else if ls > 3 {
				ls = 3
			}
			eps := float32(ln.rng.NormFloat64())
			raw := mu + nn.ExpF32(ls)*eps
			th := nn.TanhF32(raw / ResBound)
			ln.row[c] += ResBound * th
		}
	}
}
