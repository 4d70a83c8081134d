package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gendt/internal/core"
)

// ModelSource names one model file the registry serves. Precision, when
// non-empty, overrides the model file's own preferred serving precision
// (Config.Precision): "f64" serves the live float64 model, "f32"/"int8"
// freeze it into the corresponding inference backend at load time.
type ModelSource struct {
	Name      string
	Path      string
	Precision core.Precision
}

// ModelInfo is the /v1/models description of one registered model.
type ModelInfo struct {
	Name      string   `json:"name"`
	Path      string   `json:"path"`
	Channels  []string `json:"channels"`
	Hidden    int      `json:"hidden"`
	BatchLen  int      `json:"batch_len"`
	MaxCells  int      `json:"max_cells"`
	Params    int      `json:"params"`
	Precision string   `json:"precision"`
	// Fingerprint is the hex weight fingerprint of the loaded generator —
	// the cheap way for a rollout to confirm a reload actually swapped the
	// served weights before paying for a full statistical gate.
	Fingerprint string `json:"fingerprint"`
	LoadedAt    string `json:"loaded_at"`
}

type modelEntry struct {
	gen      core.Generator
	source   ModelSource
	loadedAt time.Time
}

// Registry maps model names to loaded GenDT generators — live float64
// models or frozen f32/int8 inference snapshots, per the resolved
// precision. Loaded generators are treated as immutable (the serving path
// never mutates them), so lookups hand out the shared value under a read
// lock and Reload swaps entries atomically without quiescing in-flight
// work: requests that already resolved a generator finish against the
// snapshot they got.
type Registry struct {
	mu      sync.RWMutex
	sources []ModelSource
	workers int // generation fan-out override; 0 keeps each model's own
	models  map[string]modelEntry
}

// NewRegistry loads every source eagerly and fails fast on the first
// unloadable model — a serve process should not start half-configured.
// workers > 0 overrides each loaded generator's worker count (the
// generation fan-out width); 0 keeps whatever the model was trained with.
func NewRegistry(sources []ModelSource, workers int) (*Registry, error) {
	r := &Registry{sources: sources, workers: workers, models: make(map[string]modelEntry, len(sources))}
	for _, s := range sources {
		if _, dup := r.models[s.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate model name %q", s.Name)
		}
		e, err := r.load(s)
		if err != nil {
			return nil, fmt.Errorf("serve: model %q: %w", s.Name, err)
		}
		r.models[s.Name] = e
	}
	if len(r.models) == 0 {
		return nil, fmt.Errorf("serve: no models configured")
	}
	return r, nil
}

// NewStaticRegistry wraps one already-loaded, in-memory generator. It backs
// callers that must serve a model that has no faithful on-disk source —
// the validation gate's noise-corrupted negative control, for example —
// through the exact /v1/generate pipeline. Reload is a no-op (there are no
// sources to re-read); the generator is treated as immutable like any other
// registry entry.
func NewStaticRegistry(name string, g core.Generator) *Registry {
	return &Registry{
		models: map[string]modelEntry{
			name: {gen: g, source: ModelSource{Name: name, Path: "(in-memory)"}, loadedAt: time.Now()},
		},
	}
}

// load reads one source, resolves its serving precision, and applies the
// worker override. Precision resolution order: the source's explicit
// Precision (the -precision flag), then the model file's own
// Config.Precision, then f64. The generator is finalized here, before it
// becomes visible to any request.
func (r *Registry) load(s ModelSource) (modelEntry, error) {
	m, err := core.LoadFile(s.Path)
	if err != nil {
		return modelEntry{}, err
	}
	prec := s.Precision
	if prec == "" {
		prec = m.Cfg.Precision
	}
	if prec == "" {
		prec = core.PrecisionF64
	}
	var g core.Generator = m
	if prec != core.PrecisionF64 {
		im, err := m.Freeze(prec)
		if err != nil {
			return modelEntry{}, err
		}
		g = im
	}
	if r.workers > 0 {
		g = g.WithWorkers(r.workers)
	}
	return modelEntry{gen: g, source: s, loadedAt: time.Now()}, nil
}

// Get resolves a generator by name. The empty name resolves iff exactly one
// model is registered (the single-model default).
func (r *Registry) Get(name string) (core.Generator, bool) {
	_, g, ok := r.Resolve(name)
	return g, ok
}

// Resolve is Get plus the canonical registered name — the batcher map is
// keyed by it so the empty-name default shares the single model's batcher.
func (r *Registry) Resolve(name string) (string, core.Generator, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" && len(r.models) == 1 {
		for n, e := range r.models {
			return n, e.gen, true
		}
	}
	e, ok := r.models[name]
	if !ok {
		return "", nil, false
	}
	return name, e.gen, true
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.models))
	for n := range r.models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// List describes every registered model, sorted by name.
func (r *Registry) List() []ModelInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ModelInfo, 0, len(r.models))
	for _, e := range r.models {
		cfg := e.gen.ModelConfig()
		info := ModelInfo{
			Name:        e.source.Name,
			Path:        e.source.Path,
			Hidden:      cfg.Hidden,
			BatchLen:    cfg.BatchLen,
			MaxCells:    cfg.MaxCells,
			Params:      e.gen.ParamCount(),
			Precision:   string(e.gen.Precision()),
			Fingerprint: fmt.Sprintf("%016x", e.gen.Fingerprint()),
			LoadedAt:    e.loadedAt.UTC().Format(time.RFC3339),
		}
		for _, ch := range cfg.Channels {
			info.Channels = append(info.Channels, ch.Name)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ReloadStatus reports the outcome of reloading one source.
type ReloadStatus struct {
	Name  string `json:"name"`
	Error string `json:"error,omitempty"`
}

// Reload re-reads every source from disk (SIGHUP / POST /admin/reload).
// Sources that fail to load keep their previously loaded model, so a bad
// file on disk degrades to a warning instead of dropping the model from
// service. Returns one status per source and the count of failures.
func (r *Registry) Reload() ([]ReloadStatus, int) {
	r.mu.RLock()
	sources := r.sources
	r.mu.RUnlock()

	// Load outside the lock: model files can be large and requests should
	// keep resolving against the current entries meanwhile.
	statuses := make([]ReloadStatus, 0, len(sources))
	loaded := make(map[string]modelEntry, len(sources))
	failures := 0
	for _, s := range sources {
		e, err := r.load(s)
		st := ReloadStatus{Name: s.Name}
		if err != nil {
			st.Error = err.Error()
			failures++
		} else {
			loaded[s.Name] = e
		}
		statuses = append(statuses, st)
	}

	r.mu.Lock()
	for name, e := range loaded {
		r.models[name] = e
	}
	r.mu.Unlock()
	return statuses, failures
}
