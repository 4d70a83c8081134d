package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"gendt/internal/dataset"
)

func bytesReader(data []byte) io.Reader { return bytes.NewReader(data) }

// identityOrder builds a valid window permutation for direct
// captureTrainState calls in tests that never replay an epoch.
func identityOrder(m *Model, seqs []*Sequence) []int {
	ord := make([]int, len(m.windows(seqs)))
	for i := range ord {
		ord[i] = i
	}
	return ord
}

// trainStraight runs an uninterrupted training of `epochs` epochs and
// returns the model and result.
func trainStraight(t *testing.T, workers, epochs int) (*Model, TrainResult, []*Sequence) {
	t.Helper()
	d := dataset.NewDatasetA(tinyData)
	chans := StandardChannels()
	cfg := tinyConfig(chans)
	cfg.Workers = workers
	cfg.Epochs = epochs
	seqs := PrepareAll(d.TrainRuns(), chans, cfg.MaxCells)
	m := NewModel(cfg)
	res, err := m.TrainWithOptions(seqs, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return m, res, seqs
}

// interruptAt trains the same fixture but stops after `stop` epochs,
// returning the checkpoint captured there — round-tripped through the
// serialized byte format, so the test proves the *persisted* checkpoint
// carries everything resume needs.
func interruptAt(t *testing.T, workers, epochs, stop int) (*TrainState, []*Sequence) {
	t.Helper()
	d := dataset.NewDatasetA(tinyData)
	chans := StandardChannels()
	cfg := tinyConfig(chans)
	cfg.Workers = workers
	cfg.Epochs = epochs
	seqs := PrepareAll(d.TrainRuns(), chans, cfg.MaxCells)
	m := NewModel(cfg)
	var captured *TrainState
	_, err := m.TrainWithOptions(seqs, TrainOpts{
		AfterEpoch: func(ev EpochEvent) error {
			if ev.Epoch == stop {
				captured = ev.State()
				return ErrStopTraining
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatalf("hook never fired at epoch %d", stop)
	}
	data, err := EncodeTrainState(captured)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := DecodeTrainState(data)
	if err != nil {
		t.Fatal(err)
	}
	return ts, seqs
}

// resumeFingerprintTest is the golden bit-exactness check: interrupt at
// epoch `stop`, resume a fresh model from the serialized checkpoint, and
// require the final weights and losses to match the uninterrupted run
// bit-for-bit.
func resumeFingerprintTest(t *testing.T, workers int) {
	t.Helper()
	const epochs, stop = 4, 2
	straight, wantRes, _ := trainStraight(t, workers, epochs)
	wantFP := straight.Fingerprint()

	ts, seqs := interruptAt(t, workers, epochs, stop)
	if ts.Epoch != stop {
		t.Fatalf("checkpoint epoch = %d, want %d", ts.Epoch, stop)
	}
	cfg, err := ts.ModelConfig()
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewModel(cfg)
	res, err := resumed.TrainWithOptions(seqs, TrainOpts{Resume: ts})
	if err != nil {
		t.Fatal(err)
	}
	if fp := resumed.Fingerprint(); fp != wantFP {
		t.Errorf("resumed fingerprint = %#x, want %#x (must be bit-identical)", fp, wantFP)
	}
	if res.FinalMSE != wantRes.FinalMSE || res.FinalDLoss != wantRes.FinalDLoss {
		t.Errorf("resumed result = %+v, want %+v (must be bit-identical)", res, wantRes)
	}
}

func TestResumeBitIdenticalSerial(t *testing.T) { resumeFingerprintTest(t, 1) }

func TestResumeBitIdenticalWorkers4(t *testing.T) { resumeFingerprintTest(t, 4) }

// TestResumePastEndIsNoop resumes a checkpoint whose epoch equals the
// configured total: no epochs run, and the weights equal the checkpoint's.
func TestResumePastEndIsNoop(t *testing.T) {
	const epochs = 2
	straight, wantRes, seqs := trainStraight(t, 1, epochs)
	wantFP := straight.Fingerprint()
	ts := straight.captureTrainState(epochs, wantRes.FinalMSE, wantRes.FinalDLoss, nil, identityOrder(straight, seqs))

	cfg, err := ts.ModelConfig()
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewModel(cfg)
	res, err := resumed.TrainWithOptions(seqs, TrainOpts{Resume: ts})
	if err != nil {
		t.Fatal(err)
	}
	if fp := resumed.Fingerprint(); fp != wantFP {
		t.Errorf("fingerprint = %#x, want %#x", fp, wantFP)
	}
	if res.FinalMSE != wantRes.FinalMSE {
		t.Errorf("FinalMSE = %v, want checkpointed %v", res.FinalMSE, wantRes.FinalMSE)
	}
}

func TestResumeBitIdenticalWorkers64(t *testing.T) { resumeFingerprintTest(t, 64) }

// TestResumeWorkerMismatchFails checks the guard rails: a parallel
// checkpoint cannot silently resume serial (or with a different worker
// count), and a different training set or architecture is rejected. A
// rejected resume must leave the model exactly as NewModel built it:
// weights and RNG stream untouched.
func TestResumeWorkerMismatchFails(t *testing.T) {
	ts, seqs := interruptAt(t, 3, 4, 1)
	cfg, err := ts.ModelConfig()
	if err != nil {
		t.Fatal(err)
	}
	withWorkers := func(n int) Config { c := cfg; c.Workers = n; return c }
	bigger := cfg
	bigger.Hidden = cfg.Hidden + 2

	for _, tc := range []struct {
		name string
		cfg  Config
		seqs []*Sequence
	}{
		{"serial resume of a 3-worker checkpoint", withWorkers(1), seqs},
		{"2-worker resume of a 3-worker checkpoint", withWorkers(2), seqs},
		{"resume on a different training set", cfg, seqs[:len(seqs)-1]},
		{"resume into a different architecture", bigger, seqs},
	} {
		m := NewModel(tc.cfg)
		if _, err := m.TrainWithOptions(tc.seqs, TrainOpts{Resume: ts}); err == nil {
			t.Errorf("%s should fail", tc.name)
			continue
		}
		fresh := NewModel(tc.cfg)
		if m.Fingerprint() != fresh.Fingerprint() {
			t.Errorf("%s: rejected resume changed the weights", tc.name)
		}
		if got, want := m.rng.Int63(), fresh.rng.Int63(); got != want {
			t.Errorf("%s: rejected resume moved the RNG stream (%d, want %d)", tc.name, got, want)
		}
	}
}

// TestAfterEpochHookErrorAborts checks a non-sentinel hook error surfaces.
func TestAfterEpochHookErrorAborts(t *testing.T) {
	d := dataset.NewDatasetA(tinyData)
	chans := StandardChannels()
	cfg := tinyConfig(chans)
	seqs := PrepareAll(d.TrainRuns(), chans, cfg.MaxCells)
	boom := errors.New("disk full")
	_, err := NewModel(cfg).TrainWithOptions(seqs, TrainOpts{
		AfterEpoch: func(EpochEvent) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the hook's error", err)
	}
}

// TestTrainStateLoadsAsModel checks a serialized checkpoint doubles as a
// servable model file: core.Load reconstructs a model whose weights equal
// the checkpointed ones.
func TestTrainStateLoadsAsModel(t *testing.T) {
	m, res, seqs := trainStraight(t, 1, 2)
	ts := m.captureTrainState(2, res.FinalMSE, res.FinalDLoss, nil, identityOrder(m, seqs))
	data, err := EncodeTrainState(ts)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytesReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != m.Fingerprint() {
		t.Error("checkpoint-loaded model weights differ from the trained model")
	}
}
