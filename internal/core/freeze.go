package core

import (
	"fmt"
	"sync"

	"gendt/internal/nn"
)

// Precision identifies a generation backend: the live float64 model or a
// frozen float32 / int8 snapshot of it.
type Precision string

// The supported generation precisions.
const (
	PrecisionF64  Precision = "f64"
	PrecisionF32  Precision = "f32"
	PrecisionInt8 Precision = "int8"
)

// ParsePrecision parses a -precision flag value. The empty string means
// the default, f64.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", string(PrecisionF64):
		return PrecisionF64, nil
	case string(PrecisionF32):
		return PrecisionF32, nil
	case string(PrecisionInt8):
		return PrecisionInt8, nil
	}
	return "", fmt.Errorf("core: unknown precision %q (want f64, f32, or int8)", s)
}

// Generator is the read-only generation surface the serving and validation
// layers run against. Both *Model (the live f64 network) and *InferModel
// (a frozen f32/int8 snapshot) implement it. Every method is safe for
// concurrent use, and each generated series is a pure function of
// (weights, Seq, Seed) at the implementation's own precision — seed
// determinism is bit-exact per precision, never across precisions.
type Generator interface {
	// GenerateSeeded produces the normalized [T][nch] series for the
	// sequence, deterministically from the seed.
	GenerateSeeded(seq *Sequence, seed int64) [][]float64
	// GenerateJobs generates the denormalized [channel][t] series per job,
	// fanning out over the configured worker width.
	GenerateJobs(jobs []GenJob) [][][]float64
	// DenormalizeSeries converts a normalized [T][nch] series to physical
	// per-channel series, indexed [channel][t].
	DenormalizeSeries(norm [][]float64) [][]float64
	// ModelConfig returns the model configuration (channels, batch length,
	// preparation options, worker width).
	ModelConfig() Config
	// ParamCount reports the generator parameter count.
	ParamCount() int
	// Precision identifies the backend.
	Precision() Precision
	// Fingerprint hashes the (source) model weights; a frozen snapshot
	// reports its source model's fingerprint, pinning provenance.
	Fingerprint() uint64
	// WithWorkers returns a view of the same weights with the generation
	// fan-out width overridden (n <= 0 keeps the current width). The
	// returned Generator is only for the Generator interface paths; it
	// shares weights (and, for frozen models, the engine pool) with the
	// receiver.
	WithWorkers(n int) Generator
}

// GenerateSeeded implements Generator on the live model: a fresh clone
// seeded with seed, so the call is concurrency-safe and deterministic.
func (m *Model) GenerateSeeded(seq *Sequence, seed int64) [][]float64 {
	return m.Clone(seed).Generate(seq)
}

// ModelConfig implements Generator.
func (m *Model) ModelConfig() Config { return m.Cfg }

// Precision implements Generator: a live model is always float64.
func (m *Model) Precision() Precision { return PrecisionF64 }

// WithWorkers implements Generator. The shallow copy shares parameters and
// scratch with the receiver, which is safe for the clone-per-job Generator
// paths (GenerateSeeded, GenerateJobs) but NOT for receiver-mutating calls
// like Generate or Train — use only through the Generator interface.
func (m *Model) WithWorkers(n int) Generator {
	if n <= 0 || n == m.Cfg.Workers {
		return m
	}
	c := *m
	c.Cfg.Workers = n
	return &c
}

// Freeze snapshots the trained generator into an immutable InferModel
// running on the blocked inference kernels at the requested precision
// (f32 or int8 — f64 is the live model itself). The snapshot shares
// nothing mutable with the model: training can continue on the source
// while the frozen copy serves.
func (m *Model) Freeze(p Precision) (*InferModel, error) {
	switch p {
	case PrecisionF32, PrecisionInt8:
	case PrecisionF64:
		return nil, fmt.Errorf("core: Freeze: f64 is the live model; freeze to f32 or int8")
	default:
		return nil, fmt.Errorf("core: Freeze: unknown precision %q", p)
	}
	quant := p == PrecisionInt8
	im := &InferModel{
		Cfg:     m.Cfg,
		prec:    p,
		nch:     len(m.Cfg.Channels),
		nParams: m.ParamCount(),
		fp:      m.Fingerprint(),
		node:    nn.FreezeLSTM(m.node, quant),
		agg:     nn.FreezeLSTM(m.agg, quant),
		aggOut:  nn.FreezeLinear(m.aggOut, quant),
	}
	im.Cfg.Precision = p
	// Generation always runs with the stochastic layers active (Generate
	// calls SetNoise(true)); bake that in, honoring the NoSRNN ablation.
	im.node.Noise = !m.Cfg.NoSRNN
	im.agg.Noise = !m.Cfg.NoSRNN
	if m.res != nil {
		r, err := freezeRes(m.res, quant)
		if err != nil {
			return nil, err
		}
		im.res = r
	}
	im.batches = &sync.Pool{New: func() any { return im.newBatch() }}
	return im, nil
}

// InferModel is a frozen, immutable inference snapshot of a trained model.
// Weights are shared by every generation; recurrent state and scratch live
// in pooled engines (batch.go), so the steady-state hot path allocates
// only the output rows. All methods are safe for concurrent use.
type InferModel struct {
	Cfg Config

	prec    Precision
	nch     int
	nParams int
	fp      uint64

	node   *nn.InferLSTM
	agg    *nn.InferLSTM
	aggOut *nn.FrozenDense
	res    *inferRes // nil under the NoResGen ablation

	// batches pools the generation engines (batch.go) by pointer so
	// WithWorkers' shallow copies share one pool (sync.Pool must not be
	// copied by value).
	batches *sync.Pool
}

// inferRes is the frozen ResGen: the body denses with their activation
// slopes, MC dropout, and the Gaussian head.
type inferRes struct {
	in, hidden, nch, lags, noiseDim int
	dropP                           float64
	stages                          []inferStage
	head                            *nn.FrozenDense
}

// inferStage is one body dense plus the LeakyReLU slope applied after it
// (0 = no activation).
type inferStage struct {
	d     *nn.FrozenDense
	alpha float32
}

// freezeRes snapshots a ResGen. The body walk is structural, so an
// architecture drift between ResGen and the freezer fails loudly here
// instead of silently generating garbage.
func freezeRes(r *ResGen, quant bool) (*inferRes, error) {
	fr := &inferRes{
		nch: r.nch, lags: r.lags, noiseDim: r.noiseDim,
		dropP: r.Dropout.P,
		head:  nn.FreezeLinear(r.head, quant),
	}
	for _, layer := range r.body.Layers {
		switch t := layer.(type) {
		case *nn.Linear:
			fr.stages = append(fr.stages, inferStage{d: nn.FreezeLinear(t, quant)})
		case *nn.LeakyReLU:
			if len(fr.stages) == 0 {
				return nil, fmt.Errorf("core: Freeze: ResGen body starts with an activation")
			}
			fr.stages[len(fr.stages)-1].alpha = float32(t.Alpha)
		default:
			return nil, fmt.Errorf("core: Freeze: unsupported ResGen body layer %T", layer)
		}
	}
	if len(fr.stages) == 0 {
		return nil, fmt.Errorf("core: Freeze: ResGen body has no dense layers")
	}
	fr.in = fr.stages[0].d.Cols
	fr.hidden = fr.head.Cols
	return fr, nil
}

// maxCols is the widest dense input among the non-LSTM frozen blocks (the
// LSTM states carry their own quantization scratch): the size of the
// engine's int8 activation scratch.
func (im *InferModel) maxCols() int {
	max := im.aggOut.Cols
	if im.res != nil {
		for _, sg := range im.res.stages {
			if sg.d.Cols > max {
				max = sg.d.Cols
			}
		}
		if im.res.head.Cols > max {
			max = im.res.head.Cols
		}
	}
	return max
}

// GenerateSeeded implements Generator: the engine at width 1. The output
// is bit-exact across repeated calls for the same (seq, seed) regardless
// of pooling or concurrency, and equal to the same job's GenerateJobs
// output before denormalization.
func (im *InferModel) GenerateSeeded(seq *Sequence, seed int64) [][]float64 {
	var norm [1][]float64
	im.generate([]GenJob{{Seq: seq, Seed: seed}}, norm[:])
	rows := make([][]float64, seq.Len())
	for t := range rows {
		rows[t] = norm[0][t*im.nch : (t+1)*im.nch : (t+1)*im.nch]
	}
	return rows
}

func clamp01f32(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// GenerateJobs implements Generator: no cloning — every job runs straight
// on the frozen weights, one engine per chunk, the chunks fanned out over
// Cfg.Workers. A call is cut into max(⌈n/batchLanes⌉, min(Workers, n))
// near-equal contiguous chunks, so no chunk is wider than batchLanes and a
// call too small to fill the workers still uses all of them: a lone
// 8-sample request runs as 4 + 4 lanes on two workers, while a call that
// already fills them chunks 8 wide. The cut cannot move a bit — a job's
// output does not depend on what shares its chunk — and costs little per
// lane, because the f32 GEMM tile is 4 lanes wide.
func (im *InferModel) GenerateJobs(jobs []GenJob) [][][]float64 {
	n := len(jobs)
	out := make([][][]float64, n)
	chunks := max((n+batchLanes-1)/batchLanes, min(im.Cfg.Workers, n))
	parallelFor(im.Cfg.Workers, chunks, func(ci int) {
		lo, hi := ci*n/chunks, (ci+1)*n/chunks
		var norm [batchLanes][]float64
		im.generate(jobs[lo:hi], norm[:hi-lo])
		for i, flat := range norm[:hi-lo] {
			out[lo+i] = denormalizeFlat(im.Cfg.Channels, flat)
		}
	})
	return out
}

// DenormalizeSeries implements Generator.
func (im *InferModel) DenormalizeSeries(norm [][]float64) [][]float64 {
	return denormalizeSeries(im.Cfg.Channels, norm)
}

// ModelConfig implements Generator.
func (im *InferModel) ModelConfig() Config { return im.Cfg }

// ParamCount implements Generator (the source model's generator count).
func (im *InferModel) ParamCount() int { return im.nParams }

// Precision implements Generator.
func (im *InferModel) Precision() Precision { return im.prec }

// Fingerprint implements Generator: the source model's weight fingerprint.
func (im *InferModel) Fingerprint() uint64 { return im.fp }

// WithWorkers implements Generator; the copy shares weights and the engine
// pool.
func (im *InferModel) WithWorkers(n int) Generator {
	if n <= 0 || n == im.Cfg.Workers {
		return im
	}
	c := *im
	c.Cfg.Workers = n
	return &c
}
