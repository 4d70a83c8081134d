package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"gendt/internal/ckpt"
	"gendt/internal/nn"
	"gendt/internal/radio"
)

// ChannelByName reconstructs a ChannelSpec from its name. Supported names
// are the four radio KPIs plus "ServingRank". It is used when loading a
// persisted model, whose channel extractors cannot be serialized.
func ChannelByName(name string) (ChannelSpec, error) {
	for i, n := range radio.KPINames {
		if n == name {
			return KPIChannel(i), nil
		}
	}
	if name == "ServingRank" {
		return ServingRankChannel(), nil
	}
	return ChannelSpec{}, fmt.Errorf("core: unknown channel %q", name)
}

// snapshot is the serialized model format.
type snapshot struct {
	Version  int         `json:"version"`
	Channels []string    `json:"channels"`
	Cfg      cfgSnap     `json:"config"`
	Params   [][]float64 `json:"params"`
}

// cfgSnap persists the architecture-relevant config fields.
type cfgSnap struct {
	Hidden    int     `json:"hidden"`
	NoiseDim  int     `json:"noise_dim"`
	ResNoise  int     `json:"res_noise"`
	Lags      int     `json:"lags"`
	BatchLen  int     `json:"batch_len"`
	StepLen   int     `json:"step_len"`
	MaxCells  int     `json:"max_cells"`
	Lambda    float64 `json:"lambda"`
	AH        float64 `json:"ah"`
	AC        float64 `json:"ac"`
	DropoutP  float64 `json:"dropout_p"`
	LoadAware bool    `json:"load_aware"`
	NoResGen  bool    `json:"no_resgen"`
	NoSRNN    bool    `json:"no_srnn"`
	Seed      int64   `json:"seed"`
	Workers   int     `json:"workers,omitempty"`
	Precision string  `json:"precision,omitempty"`
}

// snapConfig is the persisted form of c's architecture fields: the one
// Config → file mapping, shared by model files and checkpoints.
func snapConfig(c Config) cfgSnap {
	return cfgSnap{
		Hidden: c.Hidden, NoiseDim: c.NoiseDim, ResNoise: c.ResNoise,
		Lags: c.Lags, BatchLen: c.BatchLen, StepLen: c.StepLen,
		MaxCells: c.MaxCells, Lambda: c.Lambda,
		AH: c.AH, AC: c.AC, DropoutP: c.DropoutP,
		LoadAware: c.LoadAware,
		NoResGen:  c.NoResGen, NoSRNN: c.NoSRNN, Seed: c.Seed,
		Workers: c.Workers, Precision: string(c.Precision),
	}
}

// config is snapConfig's inverse over the named channels.
func (c cfgSnap) config(names []string) (Config, error) {
	var chans []ChannelSpec
	for _, name := range names {
		ch, err := ChannelByName(name)
		if err != nil {
			return Config{}, err
		}
		chans = append(chans, ch)
	}
	return Config{
		Channels: chans,
		Hidden:   c.Hidden, NoiseDim: c.NoiseDim, ResNoise: c.ResNoise,
		Lags: c.Lags, BatchLen: c.BatchLen, StepLen: c.StepLen,
		MaxCells: c.MaxCells, Lambda: c.Lambda,
		AH: c.AH, AC: c.AC, DropoutP: c.DropoutP,
		LoadAware: c.LoadAware,
		NoResGen:  c.NoResGen, NoSRNN: c.NoSRNN, Seed: c.Seed,
		Workers: c.Workers, Precision: Precision(c.Precision),
	}, nil
}

// channelNames lists the channels' names, the form files persist them in.
func channelNames(chans []ChannelSpec) []string {
	var names []string
	for _, ch := range chans {
		names = append(names, ch.Name)
	}
	return names
}

// maxDim bounds every persisted size field. NewModel allocates O(dim²)
// memory from these, so a corrupt or hostile file must not be able to
// demand an absurd architecture (found by fuzzing: a negative or huge
// dimension panicked or OOMed the loader).
const maxDim = 1 << 16

// maxChannels bounds the channel list (there are only 5 nameable channels,
// but duplicates are legal).
const maxChannels = 64

// validate rejects config snapshots no real model could have produced.
func (c cfgSnap) validate(nChannels int) error {
	if nChannels < 1 || nChannels > maxChannels {
		return fmt.Errorf("core: load: %d channels (want 1..%d)", nChannels, maxChannels)
	}
	for _, d := range []struct {
		name string
		v    int
	}{
		{"hidden", c.Hidden}, {"noise_dim", c.NoiseDim}, {"res_noise", c.ResNoise},
		{"lags", c.Lags}, {"batch_len", c.BatchLen}, {"step_len", c.StepLen},
		{"max_cells", c.MaxCells}, {"workers", c.Workers},
	} {
		if d.v < 0 || d.v > maxDim {
			return fmt.Errorf("core: load: %s = %d out of range [0, %d]", d.name, d.v, maxDim)
		}
	}
	if c.DropoutP < 0 || c.DropoutP >= 1 {
		return fmt.Errorf("core: load: dropout_p = %v out of range [0, 1)", c.DropoutP)
	}
	if _, err := ParsePrecision(c.Precision); err != nil {
		return fmt.Errorf("core: load: %w", err)
	}
	return nil
}

// allParams returns generator plus discriminator parameters in a stable
// order.
func (m *Model) allParams() []*nn.Param {
	return append(m.genParams(), m.discParams()...)
}

// checkParams reports whether persisted weights fit m: one group per
// allParams entry, each of the same length. Callers prefix the error with
// what they were reading.
func (m *Model) checkParams(params [][]float64) error {
	ps := m.allParams()
	if len(ps) != len(params) {
		return fmt.Errorf("parameter count mismatch (%d vs %d)", len(ps), len(params))
	}
	for i, p := range ps {
		if len(p.W) != len(params[i]) {
			return fmt.Errorf("parameter %d size mismatch (%d vs %d)", i, len(p.W), len(params[i]))
		}
	}
	return nil
}

// checksumTrailer is the integrity record appended after the payload line:
// a second JSON line carrying the CRC32 (IEEE) of the payload line's exact
// bytes (newline included). Readers verify it when present; files written
// before the trailer existed still load.
type checksumTrailer struct {
	CRC32 uint32 `json:"crc32"`
}

// appendChecksum appends the trailer line to a newline-terminated payload.
func appendChecksum(payload []byte) []byte {
	t, _ := json.Marshal(checksumTrailer{CRC32: crc32.ChecksumIEEE(payload)})
	out := make([]byte, 0, len(payload)+len(t)+1)
	out = append(out, payload...)
	out = append(out, t...)
	return append(out, '\n')
}

// splitChecksum separates a payload from its optional trailer and verifies
// the CRC when a trailer is present.
func splitChecksum(data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || nl == len(data)-1 {
		return data, nil // single line: no trailer (pre-checksum format)
	}
	payload, rest := data[:nl+1], data[nl+1:]
	var t checksumTrailer
	if err := json.Unmarshal(bytes.TrimSpace(rest), &t); err != nil {
		return nil, fmt.Errorf("core: load: malformed checksum trailer: %w", err)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != t.CRC32 {
		return nil, fmt.Errorf("core: load: checksum mismatch (file %08x, computed %08x): truncated or corrupt model file", t.CRC32, crc)
	}
	return payload, nil
}

// Save writes the model (config + weights) as checksummed JSON to w: one
// payload line followed by a CRC32 trailer line that Load verifies.
func (m *Model) Save(w io.Writer) error {
	data, err := m.encodeSnapshot()
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// encodeSnapshot serializes the model to its on-disk byte format.
func (m *Model) encodeSnapshot() ([]byte, error) {
	snap := snapshot{
		Version:  1,
		Channels: channelNames(m.Cfg.Channels),
		Cfg:      snapConfig(m.Cfg),
	}
	for _, p := range m.allParams() {
		snap.Params = append(snap.Params, p.W)
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("core: save: %w", err)
	}
	return appendChecksum(append(payload, '\n')), nil
}

// SaveFile writes the model to a file atomically (temp file + fsync +
// rename), so a crash mid-save can never leave a torn model file at path —
// the file either keeps its previous content or holds the complete new
// model.
func (m *Model) SaveFile(path string) error {
	data, err := m.encodeSnapshot()
	if err != nil {
		return err
	}
	if err := ckpt.WriteFileAtomic(ckpt.OSFS{}, path, data); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// EncodeTrainState serializes a training checkpoint to the same
// checksummed line format as Save, so checkpoint payloads are
// self-verifying even outside a ckpt.Store manifest.
func EncodeTrainState(ts *TrainState) ([]byte, error) {
	payload, err := json.Marshal(ts)
	if err != nil {
		return nil, fmt.Errorf("core: encode train state: %w", err)
	}
	return appendChecksum(append(payload, '\n')), nil
}

// DecodeTrainState parses and validates a checkpoint written by
// EncodeTrainState.
func DecodeTrainState(data []byte) (*TrainState, error) {
	payload, err := splitChecksum(data)
	if err != nil {
		return nil, err
	}
	var ts TrainState
	if err := json.Unmarshal(payload, &ts); err != nil {
		return nil, fmt.Errorf("core: decode train state: %w", err)
	}
	if err := ts.validate(); err != nil {
		return nil, err
	}
	return &ts, nil
}

// formatProbe sniffs which on-disk format a payload line carries.
type formatProbe struct {
	Kind string `json:"kind"`
}

// Load reads a model saved with Save — or a training checkpoint written by
// EncodeTrainState, from which it reconstructs the model with the
// checkpointed weights. The optional CRC32 trailer is verified, and the
// embedded config is validated, so a truncated, bit-flipped, or hostile
// file returns an error rather than a broken model.
func Load(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	payload, err := splitChecksum(data)
	if err != nil {
		return nil, err
	}
	var probe formatProbe
	if err := json.Unmarshal(payload, &probe); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if probe.Kind == TrainStateKind {
		var ts TrainState
		if err := json.Unmarshal(payload, &ts); err != nil {
			return nil, fmt.Errorf("core: load: %w", err)
		}
		return NewModelFromTrainState(&ts)
	}

	var snap snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("core: load: unsupported version %d", snap.Version)
	}
	if err := snap.Cfg.validate(len(snap.Channels)); err != nil {
		return nil, err
	}
	cfg, err := snap.Cfg.config(snap.Channels)
	if err != nil {
		return nil, err
	}
	m := NewModel(cfg)
	if err := m.checkParams(snap.Params); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	for i, p := range m.allParams() {
		copy(p.W, snap.Params[i])
	}
	return m, nil
}

// LoadFile reads a model (or training checkpoint) from a file.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	defer f.Close()
	return Load(f)
}
