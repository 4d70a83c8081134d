package core

import (
	"bytes"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"gendt/internal/dataset"
	"gendt/internal/nn"
)

// freezeFixture trains a tiny model and prepares one held-out sequence.
func freezeFixture(t *testing.T) (*Model, *Sequence) {
	t.Helper()
	d := dataset.NewDatasetA(tinyData)
	chans := RSRPRSRQChannels()
	m := NewModel(tinyConfig(chans))
	train := PrepareAll(d.TrainRuns(), chans, m.Cfg.MaxCells)
	m.Train(train, nil)
	seq := PrepareAll(d.TestRuns(), chans, m.Cfg.MaxCells)[0]
	return m, seq
}

func TestParsePrecision(t *testing.T) {
	for in, want := range map[string]Precision{
		"": PrecisionF64, "f64": PrecisionF64, "f32": PrecisionF32, "int8": PrecisionInt8,
	} {
		got, err := ParsePrecision(in)
		if err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePrecision("bf16"); err == nil {
		t.Error("ParsePrecision must reject unknown precisions")
	}
}

func TestFreezeRejectsF64(t *testing.T) {
	m, _ := freezeFixture(t)
	if _, err := m.Freeze(PrecisionF64); err == nil {
		t.Error("Freeze(f64) must fail: f64 is the live model")
	}
	if _, err := m.Freeze(Precision("x")); err == nil {
		t.Error("Freeze must reject unknown precisions")
	}
}

// TestFrozenDeterministicPerPrecision is the per-precision seed-determinism
// contract: repeated generations with the same (seq, seed) are bit-exact
// on the same frozen backend, including across pooled-state reuse and
// GenerateJobs concurrency.
func TestFrozenDeterministicPerPrecision(t *testing.T) {
	m, seq := freezeFixture(t)
	for _, p := range []Precision{PrecisionF32, PrecisionInt8} {
		im, err := m.Freeze(p)
		if err != nil {
			t.Fatal(err)
		}
		a := im.GenerateSeeded(seq, 42)
		b := im.GenerateSeeded(seq, 42)
		if !series2Equal(a, b) {
			t.Fatalf("%s: repeated GenerateSeeded not bit-exact", p)
		}
		jobs := []GenJob{{Seq: seq, Seed: 42}, {Seq: seq, Seed: 7}, {Seq: seq, Seed: 42}}
		serial := im.WithWorkers(1).GenerateJobs(jobs)
		par := im.WithWorkers(3).GenerateJobs(jobs)
		for i := range jobs {
			if !series2Equal(serial[i], par[i]) {
				t.Fatalf("%s: job %d differs between Workers=1 and Workers=3", p, i)
			}
		}
		if !series2Equal(serial[0], serial[2]) {
			t.Fatalf("%s: same-seed jobs differ", p)
		}
		direct := im.DenormalizeSeries(im.GenerateSeeded(seq, 42))
		if !series2Equal(serial[0], direct) {
			t.Fatalf("%s: GenerateJobs vs direct GenerateSeeded differ", p)
		}
	}
}

// hashSeries is FNV-64a over the IEEE-754 bits of every value of every
// series, in order.
func hashSeries(series ...[][]float64) uint64 {
	h := fnv.New64a()
	for _, s := range series {
		for _, row := range s {
			fnvFloats(h, row)
		}
	}
	return h.Sum64()
}

// TestFrozenEngineGolden pins the engine to the output of the sequential
// job-at-a-time frozen path it replaced (InferModel's own per-job window
// loop over a fused single-lane LSTM step). The constants were captured
// from that path, at the commit before its removal, on this fixture:
// GenerateSeeded for two seeds, and the raggedJobs set through
// GenerateJobs with batching off. The engine must reproduce them at width
// 1 (GenerateSeeded) and in GenerateJobs' chunks on one worker and on
// three; any drift means a frozen model no longer generates what it did.
func TestFrozenEngineGolden(t *testing.T) {
	if !nn.Accelerated() {
		t.Skip("goldens were captured on the AVX2+FMA kernels; the portable kernels round differently")
	}
	m, seq := freezeFixture(t)
	jobs := raggedJobs(m, seq)
	seeds := [2]int64{42, 7}
	for _, tc := range []struct {
		p      Precision
		seeded [2]uint64
		jobs   uint64
	}{
		{PrecisionF32, [2]uint64{0x6167ac8763d4f92e, 0xffff2d05df9dc82a}, 0x7a565bcb259f977a},
		{PrecisionInt8, [2]uint64{0x98261c6cfddd94a0, 0x8438e11ddec2af8}, 0xf17fb781c22252d6},
	} {
		im, err := m.Freeze(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			if got := hashSeries(im.GenerateSeeded(seq, seed)); got != tc.seeded[i] {
				t.Errorf("%s: GenerateSeeded(seed %d) hash = %#x, want %#x", tc.p, seed, got, tc.seeded[i])
			}
		}
		alone := make([][][]float64, len(jobs))
		for i, j := range jobs {
			alone[i] = im.DenormalizeSeries(im.GenerateSeeded(j.Seq, j.Seed))
		}
		for name, got := range map[string][][][]float64{
			"width 1":   alone,
			"1 worker":  im.WithWorkers(1).GenerateJobs(jobs),
			"3 workers": im.WithWorkers(3).GenerateJobs(jobs),
		} {
			if h := hashSeries(got...); h != tc.jobs {
				t.Errorf("%s: ragged jobs at %s hash = %#x, want %#x", tc.p, name, h, tc.jobs)
			}
		}
	}
}

// TestFrozenCellDimMismatchPanics is the frozen twin of
// TestLoadAwareDimensionMismatchPanics: a frozen model fed sequences
// prepared with the wrong per-cell width must fail loudly at admission,
// in both directions, not write an attribute into a noise slot.
func TestFrozenCellDimMismatchPanics(t *testing.T) {
	d := dataset.NewDatasetA(tinyData)
	chans := RSRPRSRQChannels()
	run := d.TestRuns()[0]
	open := PrepareSequenceWith(run, chans, PrepareOptions{MaxCells: 6})
	aware := PrepareSequenceWith(run, chans, PrepareOptions{MaxCells: 6, LoadAware: true})
	for _, loadAware := range []bool{true, false} {
		cfg := tinyConfig(chans)
		cfg.LoadAware = loadAware
		m := NewModel(cfg)
		wrong := open
		if !loadAware {
			wrong = aware
		}
		for _, p := range []Precision{PrecisionF32, PrecisionInt8} {
			im, err := m.Freeze(p)
			if err != nil {
				t.Fatal(err)
			}
			for name, gen := range map[string]func(){
				"GenerateSeeded": func() { im.GenerateSeeded(wrong, 1) },
				"GenerateJobs":   func() { im.GenerateJobs([]GenJob{{Seq: wrong, Seed: 1}}) },
			} {
				func() {
					defer func() {
						msg, _ := recover().(string)
						if !strings.Contains(msg, "cell-attribute dimension mismatch") {
							t.Errorf("%s LoadAware=%v %s: want a named dimension-mismatch panic, got %q", p, loadAware, name, msg)
						}
					}()
					gen()
				}()
			}
		}
	}
}

// TestFrozenCloseToF64 bounds the frozen backends' drift from the live
// model. The paths draw identical RNG schedules, so with the same seed the
// series differ only by arithmetic precision: f32 stays within a few ulps
// compounded over the recurrence, int8 within the quantization budget.
// These are sanity bounds — the real faithfulness gate is gendt-validate's
// distributional suite, which CI runs against both frozen backends.
func TestFrozenCloseToF64(t *testing.T) {
	m, seq := freezeFixture(t)
	ref := m.GenerateSeeded(seq, 9)
	for _, tc := range []struct {
		p   Precision
		tol float64
	}{
		// The recurrent nets are chaotic-ish: tiny rounding differences
		// compound across steps, so the bounds are loose but still far
		// tighter than the [0,1] output range.
		{PrecisionF32, 0.15},
		{PrecisionInt8, 0.35},
	} {
		im, err := m.Freeze(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		got := im.GenerateSeeded(seq, 9)
		if len(got) != len(ref) {
			t.Fatalf("%s: length %d vs %d", tc.p, len(got), len(ref))
		}
		var sum float64
		var n int
		for t2 := range ref {
			for c := range ref[t2] {
				sum += math.Abs(got[t2][c] - ref[t2][c])
				n++
			}
		}
		if mean := sum / float64(n); mean > tc.tol {
			t.Errorf("%s: mean |frozen - f64| = %.4f, want <= %.3f", tc.p, mean, tc.tol)
		}
	}
}

// TestFrozenMatchesConfigShape checks the frozen metadata mirrors the
// source model.
func TestFrozenMatchesConfigShape(t *testing.T) {
	m, _ := freezeFixture(t)
	im, err := m.Freeze(PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	if im.Precision() != PrecisionF32 {
		t.Errorf("Precision() = %v", im.Precision())
	}
	if im.ParamCount() != m.ParamCount() {
		t.Errorf("ParamCount %d vs %d", im.ParamCount(), m.ParamCount())
	}
	if im.Fingerprint() != m.Fingerprint() {
		t.Errorf("Fingerprint mismatch")
	}
	if im.ModelConfig().Precision != PrecisionF32 {
		t.Errorf("frozen config precision = %q", im.ModelConfig().Precision)
	}
	if got := im.ModelConfig().Channels; len(got) != len(m.Cfg.Channels) {
		t.Errorf("channels %d vs %d", len(got), len(m.Cfg.Channels))
	}
}

// TestPrecisionPersistRoundTrip: a model saved with a preferred serving
// precision loads with it intact — from a model file and from a training
// checkpoint, which gendt-serve serves directly — and corrupt values are
// rejected.
func TestPrecisionPersistRoundTrip(t *testing.T) {
	m, _ := freezeFixture(t)
	m.Cfg.Precision = PrecisionInt8
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg.Precision != PrecisionInt8 {
		t.Errorf("loaded precision = %q, want int8", loaded.Cfg.Precision)
	}

	ck, err := EncodeTrainState(m.captureTrainState(1, 0, 0, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := DecodeTrainState(ck)
	if err != nil {
		t.Fatal(err)
	}
	fromState, err := NewModelFromTrainState(ts)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := Load(bytes.NewReader(ck))
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Model{"NewModelFromTrainState": fromState, "Load(checkpoint)": fromFile} {
		if snapConfig(got.Cfg) != snapConfig(m.Cfg) || got.Fingerprint() != m.Fingerprint() {
			t.Errorf("%s: config %+v, want %+v (weights equal: %v)",
				name, snapConfig(got.Cfg), snapConfig(m.Cfg), got.Fingerprint() == m.Fingerprint())
		}
	}

	data := bytes.ReplaceAll(saved, []byte(`"precision":"int8"`), []byte(`"precision":"zzz"`))
	if bytes.Equal(data, saved) {
		t.Fatal("snapshot layout changed; precision field not found")
	}
	// The checksum trailer covers the payload, so recompute via a fresh
	// save path: corrupting the field invalidates the checksum anyway,
	// which is itself a pass (the file is rejected).
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Error("corrupt precision must not load")
	}
}

// series2Equal is bit-exact equality for [T][nch] or [nch][T] series.
func series2Equal(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
