package core

import (
	"fmt"
	"hash/fnv"
	"math"
)

// TrainStateKind tags serialized TrainState JSON so core.Load can tell a
// checkpoint from a plain model snapshot.
const TrainStateKind = "train-state"

// trainCfgSnap extends the persisted architecture config with every field
// the training loop itself consumes, so a resumed run reconstructs the
// exact optimization problem (loss weights, schedule, parallelism) the
// checkpoint was taken under.
type trainCfgSnap struct {
	cfgSnap
	Epochs    int     `json:"epochs"`
	LR        float64 `json:"lr"`
	DiscLR    float64 `json:"disc_lr"`
	ClipNorm  float64 `json:"clip_norm"`
	LagNoise  float64 `json:"lag_noise"`
	NoGANLoss bool    `json:"no_gan_loss,omitempty"`
	NoBatch   bool    `json:"no_batch,omitempty"`
}

// TrainState is a complete, resumable snapshot of a training run at an
// epoch boundary: weights, Adam moments and step counters, and the exact
// position of every RNG stream (the primary model's plus one per worker
// replica when training data-parallel). Resuming from it is bit-identical
// to never having stopped — see DESIGN.md, "Crash-safe checkpointing".
type TrainState struct {
	Kind     string       `json:"kind"` // TrainStateKind
	Version  int          `json:"version"`
	Epoch    int          `json:"epoch"` // completed epochs
	Channels []string     `json:"channels"`
	Cfg      trainCfgSnap `json:"config"`

	Params [][]float64 `json:"params"` // weights, allParams order
	AdamM  [][]float64 `json:"adam_m"` // first moments, same order
	AdamV  [][]float64 `json:"adam_v"` // second moments, same order

	GenSteps  int `json:"gen_steps"`  // generator Adam step counter
	DiscSteps int `json:"disc_steps"` // discriminator Adam step counter

	RNG        RNGState   `json:"rng"`
	WorkerRNGs []RNGState `json:"worker_rngs,omitempty"` // one per replica (Workers>1)

	// WindowOrder is the training-window permutation at the epoch
	// boundary. Each epoch shuffles the previous epoch's order in place,
	// so the permutation itself is training state: resuming from the
	// identity order would diverge from the uninterrupted run even with
	// the RNG stream correctly positioned.
	WindowOrder []int `json:"window_order,omitempty"`

	FinalMSE   float64 `json:"final_mse"`
	FinalDLoss float64 `json:"final_dloss"`
}

// trainStateVersion is the current TrainState schema version.
const trainStateVersion = 1

// captureTrainState deep-copies the model's resumable training state at an
// epoch boundary. clones carries the cloned workers (nil when the model is
// its own only worker); only their RNG positions are recorded — their
// weights are broadcast copies of the primary's.
func (m *Model) captureTrainState(epoch int, mse, dloss float64, clones []*Model, order []int) *TrainState {
	cfg := m.Cfg
	ts := &TrainState{
		Kind:     TrainStateKind,
		Version:  trainStateVersion,
		Epoch:    epoch,
		Channels: channelNames(cfg.Channels),
		Cfg: trainCfgSnap{
			cfgSnap: snapConfig(cfg),
			Epochs:  cfg.Epochs, LR: cfg.LR, DiscLR: cfg.DiscLR,
			ClipNorm: cfg.ClipNorm, LagNoise: cfg.LagNoise,
			NoGANLoss: cfg.NoGANLoss, NoBatch: cfg.NoBatch,
		},
		GenSteps:   m.genOpt.StepCount(),
		DiscSteps:  m.discOpt.StepCount(),
		RNG:        m.rngSrc.state(),
		FinalMSE:   mse,
		FinalDLoss: dloss,
	}
	for _, p := range m.allParams() {
		ts.Params = append(ts.Params, append([]float64(nil), p.W...))
		ts.AdamM = append(ts.AdamM, append([]float64(nil), p.M...))
		ts.AdamV = append(ts.AdamV, append([]float64(nil), p.V...))
	}
	for _, rep := range clones {
		ts.WorkerRNGs = append(ts.WorkerRNGs, rep.rngSrc.state())
	}
	ts.WindowOrder = append([]int(nil), order...)
	return ts
}

// ModelConfig reconstructs the full training Config the checkpoint was
// taken under, including channels.
func (ts *TrainState) ModelConfig() (Config, error) {
	cfg, err := ts.Cfg.config(ts.Channels)
	if err != nil {
		return Config{}, err
	}
	c := ts.Cfg
	cfg.Epochs, cfg.LR, cfg.DiscLR = c.Epochs, c.LR, c.DiscLR
	cfg.ClipNorm, cfg.LagNoise = c.ClipNorm, c.LagNoise
	cfg.NoGANLoss, cfg.NoBatch = c.NoGANLoss, c.NoBatch
	return cfg, nil
}

// validate rejects checkpoints whose structure cannot belong to a model
// this package can build (defense against corrupt or hostile files; real
// torn files are already caught by the checksum layers).
func (ts *TrainState) validate() error {
	if ts.Kind != TrainStateKind {
		return fmt.Errorf("core: train state: kind %q", ts.Kind)
	}
	if ts.Version != trainStateVersion {
		return fmt.Errorf("core: train state: unsupported version %d", ts.Version)
	}
	if ts.Epoch < 0 {
		return fmt.Errorf("core: train state: negative epoch %d", ts.Epoch)
	}
	if ts.GenSteps < 0 || ts.DiscSteps < 0 {
		return fmt.Errorf("core: train state: negative optimizer step count")
	}
	if len(ts.Params) != len(ts.AdamM) || len(ts.Params) != len(ts.AdamV) {
		return fmt.Errorf("core: train state: params/moments group counts differ (%d/%d/%d)",
			len(ts.Params), len(ts.AdamM), len(ts.AdamV))
	}
	for i := range ts.Params {
		if len(ts.AdamM[i]) != len(ts.Params[i]) || len(ts.AdamV[i]) != len(ts.Params[i]) {
			return fmt.Errorf("core: train state: group %d params/moments sizes differ", i)
		}
	}
	return ts.Cfg.cfgSnap.validate(len(ts.Channels))
}

// NewModelFromTrainState builds a model with the checkpoint's architecture
// and weights. Optimizer moments and RNG position are NOT applied — use
// TrainOpts.Resume for bit-exact training continuation; this constructor
// serves inference paths (e.g. serving a checkpoint file directly).
func NewModelFromTrainState(ts *TrainState) (*Model, error) {
	if err := ts.validate(); err != nil {
		return nil, err
	}
	cfg, err := ts.ModelConfig()
	if err != nil {
		return nil, err
	}
	if len(cfg.Channels) == 0 {
		return nil, fmt.Errorf("core: train state: no channels")
	}
	m := NewModel(cfg)
	if err := m.checkParams(ts.Params); err != nil {
		return nil, fmt.Errorf("core: train state: %w", err)
	}
	for i, p := range m.allParams() {
		copy(p.W, ts.Params[i])
	}
	return m, nil
}

// restoreTrainState loads a checkpoint into m for training continuation:
// weights, Adam moments and step counters, zeroed gradients, the primary
// RNG stream position, and the window permutation into order. It first
// checks that ts fits this run — the architecture, nclones cloned workers
// (0 when the model is its own only worker) and len(order) training
// windows — so a rejected checkpoint leaves m and order untouched. The
// clones' RNG streams are restored by the trainer once the clones exist.
func (m *Model) restoreTrainState(ts *TrainState, order []int, nclones int) error {
	if err := ts.validate(); err != nil {
		return err
	}
	if err := m.checkParams(ts.Params); err != nil {
		return fmt.Errorf("core: resume: %w: checkpoint is for a different architecture", err)
	}
	if got := len(ts.WorkerRNGs); got != nclones {
		return fmt.Errorf("core: resume: checkpoint has %d worker RNG streams, this run has %d (Workers = %d); resume with the checkpoint's Workers",
			got, nclones, m.Cfg.Workers)
	}
	if len(ts.WindowOrder) != len(order) {
		return fmt.Errorf("core: resume: checkpoint has %d training windows, this run has %d: different training set",
			len(ts.WindowOrder), len(order))
	}
	seen := make([]bool, len(order))
	for _, v := range ts.WindowOrder {
		if v < 0 || v >= len(order) || seen[v] {
			return fmt.Errorf("core: resume: window order is not a permutation")
		}
		seen[v] = true
	}

	copy(order, ts.WindowOrder)
	for i, p := range m.allParams() {
		copy(p.W, ts.Params[i])
		copy(p.M, ts.AdamM[i])
		copy(p.V, ts.AdamV[i])
		p.ZeroGrad()
	}
	m.genOpt.SetStepCount(ts.GenSteps)
	m.discOpt.SetStepCount(ts.DiscSteps)
	m.rngSrc.restore(ts.RNG)
	return nil
}

// Fingerprint hashes every weight (FNV-64a over the IEEE-754 bits, in the
// stable allParams order), so two models can be compared bit-for-bit —
// the equality check behind the resume-is-bit-identical guarantee.
func (m *Model) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range m.allParams() {
		for _, w := range p.W {
			bits := math.Float64bits(w)
			for i := 0; i < 8; i++ {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
