package core

import "sync"

// Generate synthesizes the normalized KPI series for a prepared (unseen)
// trajectory sequence. Generation runs in non-overlapping batches of
// length L (Δt = L, paper §4.3.3); within a batch the LSTMs capture the
// short-term temporal correlations, while long-term correlation across
// batch boundaries is carried by ResGen's autoregressive lags over the
// generated history — the paper's two-subtask decomposition of long-series
// generation. The returned series has the sequence's full length and is in
// normalized [0,1] units; use DenormalizeSeries for physical units.
func (m *Model) Generate(seq *Sequence) [][]float64 {
	return m.generate(seq, m.Cfg.BatchLen, true)
}

// GenerateIndependent generates each batch independently (autoregressive
// lags cleared at every batch boundary, so nothing crosses it) — the
// "stitching independently generated short trajectories" strawman of the
// paper's Table 8/Figure 10. batchLen overrides the model's batch length
// when positive; m.Cfg is never written.
func (m *Model) GenerateIndependent(seq *Sequence, batchLen int) [][]float64 {
	if batchLen <= 0 {
		batchLen = m.Cfg.BatchLen
	}
	return m.generate(seq, batchLen, false)
}

// generate runs the batch loop with batches of batchLen steps.
func (m *Model) generate(seq *Sequence, batchLen int, carryLags bool) [][]float64 {
	T := seq.Len()
	m.SetNoise(true)
	if m.res != nil {
		// Statistical variation at generation time comes from the noise
		// inputs and the sampled Gaussian residual; MC dropout stays on as
		// in training (paper §6.2.1 uses generation-time dropout).
		m.res.Dropout.Active = true
	}
	out := make([][]float64, 0, T)

	for lo := 0; lo < T; lo += batchLen {
		L := batchLen
		if lo+L > T {
			L = T - lo
		}
		teacher := out
		if !carryLags {
			// Independent batches: no history crosses the boundary.
			teacher = nil
		}
		out = append(out, m.forwardGen(seq, lo, L, teacher)...)
	}
	return out
}

// forwardGen is forward for generation: same node phase, but it discards
// backward caches, feeds ResGen the generated history un-perturbed, clamps,
// and returns freshly allocated output rows (they escape into the
// generated series). LSTM state is reset at each batch, matching the
// training regime (windows always start from zero state). teacher is the
// generated history before lo used for ResGen lags; nil means independent
// batches (zero history).
func (m *Model) forwardGen(seq *Sequence, lo, L int, teacher [][]float64) [][]float64 {
	cfg := m.Cfg
	nch := len(cfg.Channels)

	hAvg := m.nodePhase(seq, lo, L, false)

	// Output rows escape to the caller: one fresh backing block per batch.
	backing := make([]float64, L*nch)
	out := make([][]float64, L)
	if len(m.lagBuf) != cfg.Lags*nch {
		m.lagBuf = make([]float64, cfg.Lags*nch)
	}
	m.agg.ResetState()
	for t := 0; t < L; t++ {
		ha := m.agg.Step(hAvg[t])
		base := m.aggOut.Forward(ha)
		o := backing[t*nch : (t+1)*nch]
		copy(o, base)
		if m.res != nil {
			// Lags over the combined (teacher ++ out[:t]) history, read in
			// place: absolute source index src < lo comes from the teacher
			// series, src >= lo from this batch's own output.
			lags := m.lagBuf
			for i := range lags {
				lags[i] = 0
			}
			for l := 0; l < cfg.Lags; l++ {
				src := lo + t - cfg.Lags + l
				if src < 0 {
					continue
				}
				dst := lags[l*nch : (l+1)*nch]
				if src < lo {
					if teacher != nil {
						copy(dst, teacher[src])
					}
				} else {
					copy(dst, out[src-lo])
				}
			}
			ro := m.res.Forward(seq.Env[lo+t], lags)
			for c := 0; c < nch; c++ {
				o[c] += ro.Sample[c]
			}
			m.res.ClearCache()
			m.res.recycle(ro)
		}
		for c := range o {
			o[c] = clamp01(o[c])
		}
		out[t] = o
	}
	m.agg.ClearCache()
	m.aggOut.ClearCache()
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// DenormalizeSeries converts a generated normalized [T][nch] series to
// physical per-channel series, indexed [channel][t].
func (m *Model) DenormalizeSeries(norm [][]float64) [][]float64 {
	return denormalizeSeries(m.Cfg.Channels, norm)
}

// denormalizeSeries is DenormalizeSeries shared between the live model and
// the frozen InferModel.
func denormalizeSeries(channels []ChannelSpec, norm [][]float64) [][]float64 {
	nch := len(channels)
	out := make([][]float64, nch)
	for c := 0; c < nch; c++ {
		out[c] = make([]float64, len(norm))
		for t := range norm {
			out[c][t] = channels[c].Denormalize(norm[t][c])
		}
	}
	return out
}

// denormalizeFlat is denormalizeSeries over a row-major [T*nch] series (the
// frozen engine's per-job output), with the channels sharing one backing.
func denormalizeFlat(channels []ChannelSpec, flat []float64) [][]float64 {
	nch := len(channels)
	T := len(flat) / nch
	out := make([][]float64, nch)
	backing := make([]float64, nch*T)
	for c := range out {
		out[c] = backing[c*T : (c+1)*T : (c+1)*T]
		for t := range out[c] {
			out[c][t] = channels[c].Denormalize(flat[t*nch+c])
		}
	}
	return out
}

// fanOut runs n independent generation-side work items across the model's
// worker pool. Each item gets a deterministic seed drawn upfront from the
// primary RNG and a fresh model clone, so the set of outputs depends only
// on the model state and seed — not on Workers or goroutine scheduling.
// With Workers <= 1 (or a single item) the items instead run serially on
// the model itself, preserving the original single-RNG-stream behaviour.
func (m *Model) fanOut(n int, serial func(i int), parallelItem func(rep *Model, i int)) {
	if m.Cfg.Workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			serial(i)
		}
		return
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = m.rng.Int63()
	}
	parallelFor(m.Cfg.Workers, n, func(i int) { parallelItem(m.Clone(seeds[i]), i) })
}

// parallelFor runs fn(i) for every i in [0, n), striped over at most
// workers goroutines (inline when that is one), and returns when all are
// done. Items must be independent; which goroutine runs which is the only
// thing the width changes.
func parallelFor(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// DeriveSeed deterministically derives the i-th child seed from a base
// seed (the same splitmix64 separation the worker pool uses). Serving-side
// sample fan-out uses it so that a request's i-th sample is a pure function
// of (request seed, i).
func DeriveSeed(seed int64, i int) int64 { return workerSeed(seed, i) }

// GenJob is one seeded generation work item for GenerateJobs: a prepared
// sequence plus the RNG seed its sample is drawn with.
type GenJob struct {
	Seq  *Sequence
	Seed int64
}

// GenerateJobs generates the denormalized [channel][t] series for each job
// on a fresh model clone seeded with the job's own seed, running up to
// Cfg.Workers jobs concurrently. Each output depends only on the model
// parameters and the job's (Seq, Seed) — not on the batch composition, the
// worker count, or goroutine scheduling — so a serving layer can coalesce
// arbitrary concurrent requests into one call and still return bit-identical
// results per request. Unlike Generate, it does not mutate the receiver:
// as long as the model's parameters are not concurrently written (e.g. by
// Train), GenerateJobs is safe to call from multiple goroutines at once.
func (m *Model) GenerateJobs(jobs []GenJob) [][][]float64 {
	out := make([][][]float64, len(jobs))
	parallelFor(m.Cfg.Workers, len(jobs), func(i int) {
		rep := m.Clone(jobs[i].Seed)
		out[i] = rep.DenormalizeSeries(rep.Generate(jobs[i].Seq))
	})
	return out
}

// GenerateAll generates the normalized series for every sequence, fanning
// the sequences out across Cfg.Workers parallel model clones. With
// Workers <= 1 it is equivalent to calling Generate on each sequence in
// order.
func (m *Model) GenerateAll(seqs []*Sequence) [][][]float64 {
	out := make([][][]float64, len(seqs))
	m.fanOut(len(seqs),
		func(i int) { out[i] = m.Generate(seqs[i]) },
		func(rep *Model, i int) { out[i] = rep.Generate(seqs[i]) })
	return out
}

// GenerateN draws n independent generation samples for the sequence and
// returns them denormalized as [n][channel][t] — the basis for the
// min/max envelopes of the paper's Figure 9. The samples are drawn across
// Cfg.Workers parallel model clones.
func (m *Model) GenerateN(seq *Sequence, n int) [][][]float64 {
	out := make([][][]float64, n)
	m.fanOut(n,
		func(i int) { out[i] = m.DenormalizeSeries(m.Generate(seq)) },
		func(rep *Model, i int) { out[i] = rep.DenormalizeSeries(rep.Generate(seq)) })
	return out
}

// Envelope reduces GenerateN samples to per-channel (min, max, mean)
// series.
func Envelope(samples [][][]float64) (min, max, mean [][]float64) {
	if len(samples) == 0 {
		return nil, nil, nil
	}
	nch := len(samples[0])
	T := len(samples[0][0])
	min = alloc2(nch, T)
	max = alloc2(nch, T)
	mean = alloc2(nch, T)
	for c := 0; c < nch; c++ {
		for t := 0; t < T; t++ {
			lo, hi, sum := samples[0][c][t], samples[0][c][t], 0.0
			for _, s := range samples {
				v := s[c][t]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
				sum += v
			}
			min[c][t], max[c][t], mean[c][t] = lo, hi, sum/float64(len(samples))
		}
	}
	return min, max, mean
}

func alloc2(a, b int) [][]float64 {
	out := make([][]float64, a)
	for i := range out {
		out[i] = make([]float64, b)
	}
	return out
}
