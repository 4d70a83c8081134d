package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/validate"
)

// TestJSONOutputIsOneDocument: with -json, stdout carries the report as
// exactly one JSON document — progress and the summary go to stderr — so
// `gendt-validate -json | jq` works.
func TestJSONOutputIsOneDocument(t *testing.T) {
	ds := dataset.NewDatasetA(dataset.Spec{Seed: 11, Scale: 0.015})
	m := core.NewModel(core.Config{
		Channels: core.RSRPRSRQChannels(),
		Hidden:   10, NoiseDim: 2, ResNoise: 2, Lags: 2,
		BatchLen: 12, StepLen: 6, MaxCells: 6,
		Epochs: 1, Seed: 1, Workers: 1,
	})
	m.Train(core.PrepareAll(ds.TrainRuns(), m.Cfg.Channels, m.Cfg.MaxCells), nil)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-model", path, "-dataset", "A", "-scale", "0.015", "-seed", "11",
		"-routes", "2", "-samples", "1", "-max-route-len", "60", "-json",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	var rep validate.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, &stdout)
	}
	var served bool
	for _, c := range rep.Checks {
		if c.Name == "meta/seed-determinism-http" {
			served = c.Passed
		}
	}
	if rep.Dataset != "A" || !served {
		t.Fatalf("want a report on dataset A with a passed served check, got %+v", rep)
	}
	if !bytes.Contains(stderr.Bytes(), []byte("checks passed")) {
		t.Fatalf("summary missing from stderr:\n%s", &stderr)
	}
}
