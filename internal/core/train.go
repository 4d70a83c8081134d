package core

import (
	"errors"
	"fmt"

	"gendt/internal/nn"
)

// window is one training batch: a [lo, lo+L) slice of a sequence.
type window struct {
	seq *Sequence
	lo  int
}

// windows enumerates training windows of length L with stride Δt over all
// sequences (the paper's overlapping batches, Figure 8a).
func (m *Model) windows(seqs []*Sequence) []window {
	var out []window
	L, step := m.Cfg.BatchLen, m.Cfg.StepLen
	for _, s := range seqs {
		for lo := 0; lo+L <= s.Len(); lo += step {
			out = append(out, window{seq: s, lo: lo})
		}
	}
	return out
}

// forwardCache holds everything one generator forward pass over a window
// produces, for use by the backward pass. During training it is the
// model's reusable scratch (one window in flight at a time); generation
// builds a fresh one per batch because the outputs escape to the caller.
type forwardCache struct {
	L, nch  int
	nCells  []int          // visible-cell count per step
	nodeSeq []nn.StepCache // per-slot detached node-LSTM caches
	hAvg    [][]float64    // [L][H] mean node embedding (discriminator context)
	base    [][]float64    // [L][nch] aggregation output
	resOuts []*ResOut      // nil when ResGen disabled
	out     [][]float64    // [L][nch] final generated (normalized)
}

// rows re-slices a [rows][width] matrix over a shared arena, reusing the
// previous backing storage when large enough. The arena is zeroed.
func rows(hdr [][]float64, arena *[]float64, n, width int) [][]float64 {
	need := n * width
	if cap(*arena) < need {
		*arena = make([]float64, need)
	}
	a := (*arena)[:need]
	for i := range a {
		a[i] = 0
	}
	*arena = a
	if cap(hdr) < n {
		hdr = make([][]float64, n)
	}
	hdr = hdr[:n]
	for i := 0; i < n; i++ {
		hdr[i] = a[i*width : (i+1)*width]
	}
	return hdr
}

// hdrs resizes a row-header slice without touching row contents.
func hdrs(hdr [][]float64, n int) [][]float64 {
	if cap(hdr) < n {
		return make([][]float64, n)
	}
	return hdr[:n]
}

// nodePhase runs the GNN-node network over one window and leaves the
// per-step mean node embedding in m.fc.hAvg (returned) and the visible-cell
// counts in m.fc.nCells — the part of a window the training and generation
// forward passes share. keep retains each slot's step caches in
// m.fc.nodeSeq for backward; generation recycles them instead.
//
// Each visible cell at this window gets its own LSTM rollout over the L
// steps; cells are identified positionally per step (the visible set varies
// over time, so we roll the network over each step's cell list and average
// — a mean-aggregation GNN). Implementation: we process "cell slots". Slot
// i at step t carries the i-th nearest visible cell. Slot sequences run the
// shared node LSTM across the window, which lets the LSTM track how a given
// nearby cell evolves (nearest cells keep their slot while dominant). The
// sums fold in during the slot loop, in slot order — Step outputs are
// pooled buffers recycled at the end of each slot pass.
func (m *Model) nodePhase(seq *Sequence, lo, L int, keep bool) [][]float64 {
	cfg := m.Cfg
	fc := &m.fc
	maxSlots := 0
	for t := 0; t < L; t++ {
		if n := len(seq.Cells[lo+t]); n > maxSlots {
			maxSlots = n
		}
	}
	if maxSlots == 0 {
		maxSlots = 1
	}
	if cap(fc.nCells) < L {
		fc.nCells = make([]int, L)
	}
	fc.nCells = fc.nCells[:L]
	for t := range fc.nCells {
		fc.nCells[t] = 0
	}
	fc.nodeSeq = fc.nodeSeq[:0]
	fc.hAvg = rows(fc.hAvg, &m.hAvgArena, L, cfg.Hidden)
	if m.zeroCell == nil {
		m.zeroCell = make([]float64, cfg.CellDim())
	}
	for slot := 0; slot < maxSlots; slot++ {
		m.node.ResetState()
		for t := 0; t < L; t++ {
			cellsAtT := seq.Cells[lo+t]
			attrs := m.zeroCell // absent cell: zero attrs
			if slot < len(cellsAtT) {
				attrs = cellsAtT[slot]
			}
			in := append(m.inBuf[:0], attrs...)
			for z := 0; z < cfg.NoiseDim; z++ {
				// z0 denoising noise (paper §4.3.1).
				in = append(in, 0.1*m.rng.NormFloat64())
			}
			m.inBuf = in
			h := m.node.Step(in)
			if slot < len(cellsAtT) || (len(cellsAtT) == 0 && slot == 0) {
				sum := fc.hAvg[t]
				for j, v := range h {
					sum[j] += v
				}
				fc.nCells[t]++
			}
		}
		if keep {
			fc.nodeSeq = append(fc.nodeSeq, m.node.TakeSteps())
		} else {
			m.node.ClearCache()
		}
	}
	for t, n := range fc.nCells {
		if n > 0 {
			avg := fc.hAvg[t]
			for j := range avg {
				avg[j] /= float64(n)
			}
		}
	}
	return fc.hAvg
}

// forward runs the generator over L steps of seq starting at lo, into the
// model's scratch cache. teacher gives the series used for ResGen lags
// (the real series during training; the generated history during
// generation).
func (m *Model) forward(seq *Sequence, lo, L int, teacher [][]float64) *forwardCache {
	cfg := m.Cfg
	nch := len(cfg.Channels)
	fc := &m.fc
	fc.L, fc.nch = L, nch

	m.nodePhase(seq, lo, L, true)

	// Aggregation: mean slot embedding per step -> aggregation LSTM ->
	// linear head, giving the context-driven base series.
	fc.base = hdrs(fc.base, L)
	m.agg.ResetState()
	for t := 0; t < L; t++ {
		ha := m.agg.Step(fc.hAvg[t])
		fc.base[t] = m.aggOut.Forward(ha)
	}

	// ResGen residual, autoregressive over the teacher series. The lags
	// are perturbed (noisy teacher forcing) so the learned autoregression
	// tolerates the generated history it will see at generation time.
	fc.out = rows(fc.out, &m.outArena, L, nch)
	if m.res != nil {
		fc.resOuts = fc.resOuts[:0]
		if cap(fc.resOuts) < L {
			fc.resOuts = make([]*ResOut, 0, L)
		}
		if len(m.lagBuf) != cfg.Lags*nch {
			m.lagBuf = make([]float64, cfg.Lags*nch)
		}
		for t := 0; t < L; t++ {
			lags := BuildLagsInto(m.lagBuf, teacher, lo+t, cfg.Lags, nch)
			if cfg.LagNoise > 0 {
				for i := range lags {
					lags[i] += cfg.LagNoise * m.rng.NormFloat64()
				}
			}
			ro := m.res.Forward(seq.Env[lo+t], lags)
			fc.resOuts = append(fc.resOuts, ro)
			out := fc.out[t]
			for c := 0; c < nch; c++ {
				out[c] = fc.base[t][c] + ro.Sample[c]
			}
		}
	} else {
		for t := 0; t < L; t++ {
			copy(fc.out[t], fc.base[t])
		}
	}
	return fc
}

// backward pushes dOut (gradient on fc.out, [L][nch]) through the
// generator, accumulating parameter gradients.
func (m *Model) backward(fc *forwardCache, dOut [][]float64) {
	cfg := m.Cfg
	// Residual path (reverse order of Forward calls for cache discipline).
	if m.res != nil {
		for t := fc.L - 1; t >= 0; t-- {
			m.res.Backward(fc.resOuts[t], dOut[t])
		}
		fc.resOuts = fc.resOuts[:0]
	}
	// Base path: linear head -> aggregation LSTM -> node LSTMs.
	dHa := hdrs(m.dHaRows, fc.L)
	m.dHaRows = dHa
	for t := fc.L - 1; t >= 0; t-- {
		dHa[t] = m.aggOut.Backward(dOut[t])
	}
	dAvg := m.agg.BackwardSeq(dHa)
	// Distribute the mean-aggregation gradient to each slot. The gradient
	// rows are recomputed per slot into shared scratch (BackwardSteps only
	// reads them).
	m.dNodeH = rows(m.dNodeH, &m.dNodeAren, fc.L, cfg.Hidden)
	for slot := len(fc.nodeSeq) - 1; slot >= 0; slot-- {
		for t := 0; t < fc.L; t++ {
			g := m.dNodeH[t]
			if slot < fc.nCells[t] && fc.nCells[t] > 0 {
				inv := 1 / float64(fc.nCells[t])
				for j := range g {
					g[j] = dAvg[t][j] * inv
				}
			} else {
				for j := range g {
					g[j] = 0
				}
			}
		}
		m.node.BackwardSteps(fc.nodeSeq[slot], m.dNodeH)
	}
	fc.nodeSeq = fc.nodeSeq[:0]
}

// discriminate runs the discriminator over a window, returning the logit.
// x is the (real or generated) normalized KPI series; hAvg the context
// embedding per step (detached).
func (m *Model) discriminate(x, hAvg [][]float64) float64 {
	m.disc.ResetState()
	var last []float64
	for t := range x {
		in := append(m.inBuf[:0], x[t]...)
		in = append(in, hAvg[t]...)
		m.inBuf = in
		last = m.disc.Step(in)
	}
	return m.discOut.Forward(last)[0]
}

// discBackward backpropagates dLogit through the discriminator's cached
// pass, returning the gradient on the x-portion of each step input. The
// returned rows alias pooled discriminator buffers: they stay valid until
// the next discriminate/discBackward call.
func (m *Model) discBackward(dLogit float64, L, nch int) [][]float64 {
	if m.dLogit == nil {
		m.dLogit = make([]float64, 1)
		m.zeroH = make([]float64, m.Cfg.Hidden)
	}
	m.dLogit[0] = dLogit
	dLast := m.discOut.Backward(m.dLogit)
	dH := hdrs(m.dHdisc, L)
	m.dHdisc = dH
	for t := 0; t < L-1; t++ {
		dH[t] = m.zeroH // BackwardSeq only reads the rows
	}
	dH[L-1] = dLast
	dIn := m.disc.BackwardSeq(dH)
	dx := hdrs(m.dxRows, L)
	m.dxRows = dx
	for t := 0; t < L; t++ {
		dx[t] = dIn[t][:nch]
	}
	return dx
}

// TrainResult summarizes a training run.
type TrainResult struct {
	Windows    int
	FinalMSE   float64
	FinalDLoss float64
}

// EpochEvent describes one completed training epoch to an AfterEpoch hook.
type EpochEvent struct {
	Epoch  int     // completed epochs so far (1-based)
	Epochs int     // total configured epochs
	MSE    float64 // epoch mean window MSE
	DLoss  float64 // epoch mean discriminator loss

	// State captures a full resumable snapshot of training at this epoch
	// boundary (weights, optimizer moments and counters, every RNG stream
	// position). Building it deep-copies the model, so call it only when
	// the snapshot will be persisted. Valid only for the duration of the
	// hook call.
	State func() *TrainState
}

// ErrStopTraining can be returned by an AfterEpoch hook to end training
// cleanly after the current epoch; TrainWithOptions then returns the
// results so far with a nil error. Any other hook error aborts training
// and is returned as-is.
var ErrStopTraining = errors.New("core: stop training")

// TrainOpts configures a resumable training run.
type TrainOpts struct {
	// Logf observes progress (may be nil).
	Logf func(format string, args ...any)
	// Resume restarts training from a checkpoint taken by an AfterEpoch
	// hook's State(). The model must have the checkpoint's architecture
	// (same config), and seqs must be the same training set; the continued
	// run is then bit-identical to one that never stopped, for both serial
	// and data-parallel training.
	Resume *TrainState
	// AfterEpoch runs at each epoch boundary (after the epoch's optimizer
	// steps). Checkpointing hooks call ev.State() and persist it.
	AfterEpoch func(ev EpochEvent) error
}

// Train fits the model on the prepared sequences for Cfg.Epochs passes.
// Progress can be observed via the optional logf (may be nil).
//
// Each shuffled epoch is processed in mini-batches, one window per worker:
// every worker runs its window's forward/backward passes, their gradients
// are averaged into the model in worker order, one optimizer step per
// network applies the update, and the new weights are broadcast back to
// the workers. With Cfg.Workers <= 1 the model is its own only worker, and
// the loop is the original serial per-window SGD, bit-for-bit. With
// Workers = N the workers are N deep clones with deterministically derived
// RNG seeds, run concurrently. The result is deterministic for a fixed
// Seed and N regardless of scheduling; see DESIGN.md, "Parallel training
// engine".
func (m *Model) Train(seqs []*Sequence, logf func(format string, args ...any)) TrainResult {
	res, _ := m.TrainWithOptions(seqs, TrainOpts{Logf: logf})
	return res
}

// TrainWithOptions is Train with checkpoint hooks and resume; see
// TrainOpts. The error is non-nil only when a resume state is incompatible
// or an AfterEpoch hook fails with something other than ErrStopTraining.
// A rejected resume leaves the model untouched.
//
// Semantically the worker count is a batch-size change, not a model
// change: a worker computes exactly the per-window gradient the serial loop
// would, and averaging N of them before one Adam step is gradient
// accumulation over a mini-batch of N. Gradient clipping consequently
// applies once to the averaged mini-batch gradient rather than per window.
func (m *Model) TrainWithOptions(seqs []*Sequence, opts TrainOpts) (TrainResult, error) {
	cfg := m.Cfg
	wins := m.windows(seqs)
	nclones := 0
	if cfg.Workers > 1 {
		nclones = min(cfg.Workers, len(wins))
	}
	order := make([]int, len(wins))
	for i := range order {
		order[i] = i
	}
	res := TrainResult{Windows: len(wins)}
	start := 0
	if ts := opts.Resume; ts != nil {
		if err := m.restoreTrainState(ts, order, nclones); err != nil {
			return TrainResult{}, err
		}
		start = ts.Epoch
		res.FinalMSE, res.FinalDLoss = ts.FinalMSE, ts.FinalDLoss
	}
	if len(wins) == 0 {
		return TrainResult{}, nil
	}

	// The worker list: the model itself, or clones with well-separated
	// seeds made after any resume restored the primary's weights. Only the
	// clones' RNG positions are checkpoint state of their own.
	workers, clones := []*Model{m}, []*Model(nil)
	if nclones > 0 {
		clones = make([]*Model, nclones)
		for w := range clones {
			clones[w] = m.Clone(workerSeed(cfg.Seed, w))
			if opts.Resume != nil {
				clones[w].rngSrc.restore(opts.Resume.WorkerRNGs[w])
			}
		}
		workers = clones
	}
	for _, wm := range workers {
		wm.SetNoise(true)
		if wm.res != nil {
			wm.res.Dropout.Active = true
		}
	}
	genP, discP := m.genParams(), m.discParams()
	// A clone flushes its discriminator gradients to its own accumulator;
	// the primary as its own worker (nil accumulator) steps them in place.
	repGen := make([][]*nn.Param, len(clones))
	repDisc := make([][]*nn.Param, len(clones))
	discAcc := make([][][]float64, len(workers))
	for w, rep := range clones {
		repGen[w], repDisc[w] = rep.genParams(), rep.discParams()
		discAcc[w] = make([][]float64, len(discP))
		for pi, p := range discP {
			discAcc[w][pi] = make([]float64, len(p.G))
		}
	}

	mses := make([]float64, len(workers))
	dlosses := make([]float64, len(workers))
	for epoch := start; epoch < cfg.Epochs; epoch++ {
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var mseSum, dSum float64
		for g0 := 0; g0 < len(order); g0 += len(workers) {
			gN := min(len(workers), len(order)-g0)
			parallelFor(gN, gN, func(w int) {
				mses[w], dlosses[w] = workers[w].windowGrads(wins[order[g0+w]], discAcc[w])
			})
			for w := 0; w < gN; w++ {
				mseSum += mses[w]
				dSum += dlosses[w]
			}
			if clones != nil {
				// Deterministic reduction in worker order: average the
				// clones' gradients into the primary's.
				inv := 1.0 / float64(gN)
				for w := 0; w < gN; w++ {
					for pi, p := range repGen[w] {
						dst := genP[pi].G
						for j, gv := range p.G {
							dst[j] += gv * inv
						}
						p.ZeroGrad()
					}
					for pi, acc := range discAcc[w] {
						dst := discP[pi].G
						for j, gv := range acc {
							dst[j] += gv * inv
							acc[j] = 0
						}
					}
				}
				if !cfg.NoGANLoss {
					nn.ClipGrads(discP, cfg.ClipNorm)
					m.discOpt.Step(discP)
				}
			}
			nn.ClipGrads(genP, cfg.ClipNorm)
			m.genOpt.Step(genP)
			for w := range clones {
				for pi, p := range repGen[w] {
					copy(p.W, genP[pi].W)
				}
				for pi, p := range repDisc[w] {
					copy(p.W, discP[pi].W)
				}
			}
		}
		res.FinalMSE = mseSum / float64(len(wins))
		res.FinalDLoss = dSum / float64(len(wins))
		if opts.Logf != nil {
			opts.Logf("epoch %d/%d: mse=%.5f dloss=%.4f", epoch+1, cfg.Epochs, res.FinalMSE, res.FinalDLoss)
		}
		if err := m.fireAfterEpoch(opts, epoch+1, res, clones, order); err != nil {
			if errors.Is(err, ErrStopTraining) {
				return res, nil
			}
			return res, err
		}
	}
	return res, nil
}

// fireAfterEpoch invokes the AfterEpoch hook (when set) with a lazy state
// capture over the primary model, the cloned workers, and the current
// window order.
func (m *Model) fireAfterEpoch(opts TrainOpts, epoch int, res TrainResult, clones []*Model, order []int) error {
	if opts.AfterEpoch == nil {
		return nil
	}
	return opts.AfterEpoch(EpochEvent{
		Epoch:  epoch,
		Epochs: m.Cfg.Epochs,
		MSE:    res.FinalMSE,
		DLoss:  res.FinalDLoss,
		State: func() *TrainState {
			return m.captureTrainState(epoch, res.FinalMSE, res.FinalDLoss, clones, order)
		},
	})
}

// windowGrads runs one window's forward/backward passes on a worker,
// leaving generator gradients accumulated (unclipped) in its params.
// Returns the window's mean MSE and discriminator loss.
//
// The generator's adversarial pass reads the discriminator and must zero
// the live discriminator grads to discard its own, so the discriminator
// update's grads are settled first. A clone flushes them into discAcc for
// the mini-batch reduction. With a nil discAcc the model is its own only
// worker and clips and steps its discriminator right here — the serial
// loop's discriminator-first order, in which the adversarial pass already
// sees this window's discriminator update.
func (m *Model) windowGrads(w window, discAcc [][]float64) (mse, dloss float64) {
	cfg := m.Cfg
	nch := len(cfg.Channels)
	L := cfg.BatchLen
	real := w.seq.KPIs
	fc := m.forward(w.seq, w.lo, L, real)
	discP := m.discParams()

	if !cfg.NoGANLoss {
		logitReal := m.discriminate(realWindow(real, w.lo, L), fc.hAvg)
		lossR, gR := nn.BCEWithLogitsLoss(logitReal, 1)
		m.discBackward(gR, L, nch)
		logitFake := m.discriminate(fc.out, fc.hAvg)
		lossF, gF := nn.BCEWithLogitsLoss(logitFake, 0)
		m.discBackward(gF, L, nch)
		if discAcc == nil {
			nn.ClipGrads(discP, cfg.ClipNorm)
			m.discOpt.Step(discP)
		} else {
			for pi, p := range discP {
				acc := discAcc[pi]
				for j, gv := range p.G {
					acc[j] += gv
				}
				p.ZeroGrad()
			}
		}
		dloss = lossR + lossF
	}

	// Generator loss L = L_M + λ L_JS; the per-step MSE gradient is scaled
	// by 1/L for a window mean.
	dOut := make([][]float64, L)
	for t := 0; t < L; t++ {
		lossT, gT := nn.MSELoss(fc.out[t], real[w.lo+t])
		mse += lossT
		for c := range gT {
			gT[c] /= float64(L)
		}
		dOut[t] = gT
	}
	mse /= float64(L)
	if !cfg.NoGANLoss {
		// Non-saturating generator loss: maximize log R(x').
		logitFake := m.discriminate(fc.out, fc.hAvg)
		_, gAdv := nn.BCEWithLogitsLoss(logitFake, 1)
		dxAdv := m.discBackward(gAdv, L, nch)
		for _, p := range discP {
			p.ZeroGrad()
		}
		for t := 0; t < L; t++ {
			for c := 0; c < nch; c++ {
				dOut[t][c] += cfg.Lambda * dxAdv[t][c] / float64(L)
			}
		}
	}
	m.backward(fc, dOut)
	return mse, dloss
}

func realWindow(series [][]float64, lo, L int) [][]float64 {
	return series[lo : lo+L]
}

// String describes the model briefly.
func (m *Model) String() string {
	return fmt.Sprintf("GenDT(nch=%d, H=%d, L=%d, Δt=%d, λ=%g, W=%d, params=%d)",
		len(m.Cfg.Channels), m.Cfg.Hidden, m.Cfg.BatchLen, m.Cfg.StepLen, m.Cfg.Lambda, m.Cfg.Workers, m.ParamCount())
}
