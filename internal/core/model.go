package core

import (
	"math/rand"
	"runtime"

	"gendt/internal/nn"
)

// Config sizes the GenDT model. The paper uses hidden dimension 100, batch
// length 50, step 5, λ=0.1, noise intensities a_h=a_c=2 (§A.3); the zero
// value of each field falls back to scaled-down defaults suitable for CPU
// training.
type Config struct {
	Channels []ChannelSpec // target KPIs (N_ch = len(Channels))

	Hidden   int     // GNN-node and aggregation LSTM hidden size H
	NoiseDim int     // N_z0: noise appended to each cell's node input
	ResNoise int     // N_z1: noise into ResGen
	Lags     int     // autoregressive KPI lags fed to ResGen
	BatchLen int     // L: batch (window) length
	StepLen  int     // Δt: training window stride (Δt < L => overlapping)
	MaxCells int     // cap on visible cells per step (0 = no cap)
	Lambda   float64 // adversarial loss weight λ
	LR       float64 // generator learning rate
	DiscLR   float64 // discriminator learning rate
	Epochs   int     // passes over the training windows
	AH, AC   float64 // stochastic-layer intensities (paper §A.2)
	DropoutP float64 // ResGen dropout probability
	ClipNorm float64 // gradient clipping
	LagNoise float64 // noise added to teacher-forced ResGen lags in training
	Seed     int64

	// Workers sets the data-parallel width of training and of the
	// embarrassingly parallel inference paths (GenerateAll, GenerateN,
	// ModelUncertainty). 0 defaults to runtime.NumCPU(); a negative value
	// means 1. The one training loop runs one window per worker per
	// optimizer step: at Workers=1 the model is its own only worker, which
	// reproduces the original serial loop bit-for-bit; Workers=N trains N
	// cloned workers with gradient accumulation over mini-batches of N
	// windows (deterministic for a fixed Seed and N — see DESIGN.md,
	// "Parallel training engine").
	Workers int

	// LoadAware extends the per-cell context with the instantaneous cell
	// load (closed-loop extension, paper §7.2). Sequences must then be
	// prepared with PrepareOptions.LoadAware.
	LoadAware bool

	// Precision records the preferred serving backend for this model
	// (empty means f64, the live model). It does not change training —
	// training is always float64 — but Save/Load round-trip it so a model
	// file can declare "serve me quantized" and the serving registry
	// freezes it accordingly unless overridden by -precision.
	Precision Precision

	// Ablation switches (paper §C.1). All false for full GenDT.
	NoResGen  bool // drop the residual generator
	NoSRNN    bool // disable the stochastic h/c layers
	NoGANLoss bool // train with MSE only
	NoBatch   bool // no overlapping batches: stride = L during training
}

// CellDim returns the per-cell context dimensionality the model expects.
func (c Config) CellDim() int {
	if c.LoadAware {
		return NumCellAttrs + 1
	}
	return NumCellAttrs
}

// withDefaults fills in zero fields.
func (c Config) withDefaults() Config {
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.NoiseDim == 0 {
		c.NoiseDim = 2
	}
	if c.ResNoise == 0 {
		c.ResNoise = 4
	}
	if c.Lags == 0 {
		c.Lags = 3
	}
	if c.BatchLen == 0 {
		c.BatchLen = 40
	}
	if c.StepLen == 0 {
		c.StepLen = 10
	}
	if c.MaxCells == 0 {
		c.MaxCells = 16
	}
	if c.Lambda == 0 {
		c.Lambda = 0.1
	}
	if c.LR == 0 {
		c.LR = 3e-3
	}
	if c.DiscLR == 0 {
		c.DiscLR = 1e-3
	}
	if c.Epochs == 0 {
		c.Epochs = 8
	}
	// The paper tunes a_h = a_c in [1, 3] against the histogram fit; with
	// this implementation's centred-uniform noise the equivalent sweet spot
	// sits at 0.6 (see the Table 12 ablation bench).
	if c.AH == 0 {
		c.AH = 0.6
	}
	if c.AC == 0 {
		c.AC = 0.6
	}
	if c.DropoutP == 0 {
		c.DropoutP = 0.2
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
	if c.LagNoise == 0 {
		// Teacher-forced lags are perturbed during training so ResGen stays
		// robust to the imperfect generated history it sees at generation
		// time (mitigates autoregressive exposure bias).
		c.LagNoise = 0.05
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Workers < 0 {
		// Load rejects a negative width, so one must never reach a file.
		c.Workers = 1
	}
	if c.NoBatch {
		c.StepLen = c.BatchLen
	}
	if c.NoSRNN {
		c.AH, c.AC = 0, 0
	}
	return c
}

// Model is a GenDT generator plus its discriminator.
type Model struct {
	Cfg Config

	// Generator components (paper Figure 6).
	node   *nn.LSTM   // G^n_θ: shared GNN-node network over cell contexts
	agg    *nn.LSTM   // G^a_θ: aggregation network over mean node embeddings
	aggOut *nn.Linear // projects aggregation hidden state to N_ch channels
	res    *ResGen    // G^r_θ: environment-conditioned Gaussian residual

	// Discriminator R_θ: single-layer LSTM over [x_t ++ h_avg_t] plus a
	// readout producing one logit per window.
	disc    *nn.LSTM
	discOut *nn.Linear

	genOpt  *nn.Adam
	discOpt *nn.Adam

	rng    *rand.Rand
	rngSrc *trackedSource // rng's source; checkpointing snapshots/restores it

	// Reusable per-window scratch. A Model is not safe for concurrent use;
	// the data-parallel paths give each worker its own Clone instead of
	// locking.
	fc        forwardCache
	hAvgArena []float64   // backing storage for fc.hAvg rows
	outArena  []float64   // backing storage for fc.out rows (training only)
	zeroCell  []float64   // absent-cell attribute vector
	inBuf     []float64   // node/discriminator step input assembly
	lagBuf    []float64   // ResGen lag assembly
	dNodeH    [][]float64 // per-slot node gradient rows
	dNodeAren []float64   // backing storage for dNodeH
	dHaRows   [][]float64 // aggregation-head gradient row headers
	dHdisc    [][]float64 // discriminator BPTT gradient row headers
	zeroH     []float64   // shared all-zero hidden gradient row
	dLogit    []float64   // 1-element discriminator logit gradient
	dxRows    [][]float64 // discBackward x-gradient headers
}

// NewModel constructs a GenDT model from the config.
func NewModel(cfg Config) *Model {
	cfg = cfg.withDefaults()
	src := newTrackedSource(cfg.Seed)
	rng := rand.New(src)
	nch := len(cfg.Channels)
	if nch == 0 {
		panic("core: Config.Channels must be non-empty")
	}
	m := &Model{Cfg: cfg, rng: rng, rngSrc: src}
	m.node = nn.NewLSTM(cfg.CellDim()+cfg.NoiseDim, cfg.Hidden, rng)
	m.agg = nn.NewLSTM(cfg.Hidden, cfg.Hidden, rng)
	m.aggOut = nn.NewLinear(cfg.Hidden, nch, rng)
	if !cfg.NoSRNN {
		m.node.AH, m.node.AC = cfg.AH, cfg.AC
		m.agg.AH, m.agg.AC = cfg.AH, cfg.AC
	}
	if !cfg.NoResGen {
		m.res = NewResGen(cfg, rng)
	}
	m.disc = nn.NewLSTM(nch+cfg.Hidden, cfg.Hidden, rng)
	m.discOut = nn.NewLinear(cfg.Hidden, 1, rng)
	m.genOpt = nn.NewAdam(cfg.LR)
	m.discOpt = nn.NewAdam(cfg.DiscLR)
	return m
}

// Clone returns a deep copy of the model — parameters, optimizer state,
// and configuration — with fresh caches and an independent RNG seeded by
// seed. Clones share no mutable state with the original, so they can run
// forward/backward passes concurrently; the data-parallel trainer and the
// parallel generation/uncertainty paths are built on this.
func (m *Model) Clone(seed int64) *Model {
	src := newTrackedSource(seed)
	rng := rand.New(src)
	c := &Model{Cfg: m.Cfg, rng: rng, rngSrc: src}
	c.node = m.node.Clone(rng)
	c.agg = m.agg.Clone(rng)
	c.aggOut = m.aggOut.Clone()
	if m.res != nil {
		c.res = m.res.Clone(rng)
	}
	c.disc = m.disc.Clone(rng)
	c.discOut = m.discOut.Clone()
	c.genOpt = m.genOpt.Clone()
	c.discOpt = m.discOpt.Clone()
	return c
}

// PerturbWeights adds deterministic Gaussian noise of the given standard
// deviation to every weight (generator and discriminator). It exists as a
// negative-control hook for the statistical validation gate: a gate that
// cannot fail a noise-corrupted model has no teeth, so CI corrupts a
// freshly trained model with this and asserts gendt-validate rejects it.
func (m *Model) PerturbWeights(sigma float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range m.allParams() {
		for i := range p.W {
			p.W[i] += sigma * rng.NormFloat64()
		}
	}
}

// workerSeed derives a deterministic, well-separated RNG seed for worker w
// from the model seed (splitmix64 finalizer over the worker index).
func workerSeed(seed int64, w int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(w+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// genParams returns all generator parameters.
func (m *Model) genParams() []*nn.Param {
	ps := append(m.node.Params(), m.agg.Params()...)
	ps = append(ps, m.aggOut.Params()...)
	if m.res != nil {
		ps = append(ps, m.res.Params()...)
	}
	return ps
}

// discParams returns all discriminator parameters.
func (m *Model) discParams() []*nn.Param {
	return append(m.disc.Params(), m.discOut.Params()...)
}

// SetNoise toggles the generator's stochastic behaviour (SRNN noise and
// input noise). Distinct from MC dropout, which is controlled on ResGen.
func (m *Model) SetNoise(active bool) {
	if m.Cfg.NoSRNN {
		active = false
	}
	m.node.NoiseActive = active
	m.agg.NoiseActive = active
}

// ParamCount reports the total number of generator weights (for docs/tests).
func (m *Model) ParamCount() int {
	total := 0
	for _, p := range m.genParams() {
		total += len(p.W)
	}
	return total
}
