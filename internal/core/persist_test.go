package core

import (
	"bytes"
	"strings"
	"testing"

	"gendt/internal/dataset"
	"gendt/internal/radio"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	d := dataset.NewDatasetA(dataset.Spec{Seed: 91, Scale: 0.015})
	chans := RSRPRSRQChannels()
	seqs := PrepareAll(d.TrainRuns(), chans, 6)
	m := NewModel(tinyConfig(chans))
	m.Train(seqs, nil)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// All weights must match exactly.
	a, b := m.allParams(), m2.allParams()
	if len(a) != len(b) {
		t.Fatalf("param groups %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i].W {
			if a[i].W[j] != b[i].W[j] {
				t.Fatalf("weight mismatch at %d/%d", i, j)
			}
		}
	}
	// Loaded model generates with the same shapes and physical ranges.
	test := PrepareSequence(d.TestRuns()[0], chans, 6)
	gen := m2.Generate(test)
	if len(gen) != test.Len() {
		t.Fatalf("loaded model generated %d steps", len(gen))
	}
}

func TestSaveLoadFile(t *testing.T) {
	chans := []ChannelSpec{KPIChannel(radio.KPIRSRP), ServingRankChannel()}
	m := NewModel(tinyConfig(chans))
	path := t.TempDir() + "/model.json"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Cfg.Channels) != 2 || m2.Cfg.Channels[1].Name != "ServingRank" {
		t.Errorf("channels not restored: %+v", m2.Cfg.Channels)
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := Load(strings.NewReader(`{"version":9,"channels":["RSRP"]}`)); err == nil {
		t.Error("unknown version should fail")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"channels":["Nope"],"config":{"hidden":4},"params":[]}`)); err == nil {
		t.Error("unknown channel should fail")
	}
	if _, err := LoadFile(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing file should fail")
	}
}

// TestNegativeWorkersRoundTrip checks that a negative Workers means one
// worker everywhere: the model file and the checkpoint of such a run both
// load, and come back with Workers == 1.
func TestNegativeWorkersRoundTrip(t *testing.T) {
	d := dataset.NewDatasetA(tinyData)
	cfg := tinyConfig(RSRPRSRQChannels())
	cfg.Workers, cfg.Epochs = -1, 1
	m := NewModel(cfg)
	var ts *TrainState
	if _, err := m.TrainWithOptions(PrepareAll(d.TrainRuns(), cfg.Channels, cfg.MaxCells), TrainOpts{
		AfterEpoch: func(ev EpochEvent) error { ts = ev.State(); return nil },
	}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("model file: %v", err)
	}
	if loaded.Cfg.Workers != 1 {
		t.Errorf("model file: Workers = %d, want 1", loaded.Cfg.Workers)
	}

	data, err := EncodeTrainState(ts)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrainState(data)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if back.Cfg.Workers != 1 || len(back.WorkerRNGs) != 0 {
		t.Errorf("checkpoint: Workers = %d with %d worker RNGs, want 1 with 0", back.Cfg.Workers, len(back.WorkerRNGs))
	}
}

func TestChannelByName(t *testing.T) {
	for _, name := range []string{"RSRP", "RSRQ", "SINR", "CQI", "ServingRank"} {
		ch, err := ChannelByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ch.Name != name {
			t.Errorf("name %s -> %s", name, ch.Name)
		}
	}
	if _, err := ChannelByName("bogus"); err == nil {
		t.Error("bogus channel should error")
	}
}

func TestSaveLoadLoadAwareModel(t *testing.T) {
	chans := RSRPRSRQChannels()
	cfg := tinyConfig(chans)
	cfg.LoadAware = true
	m := NewModel(cfg)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Cfg.LoadAware {
		t.Fatal("LoadAware flag not persisted")
	}
	if m2.Cfg.CellDim() != NumCellAttrs+1 {
		t.Fatalf("loaded CellDim = %d", m2.Cfg.CellDim())
	}
}
