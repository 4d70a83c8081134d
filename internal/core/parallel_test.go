package core

import (
	"fmt"
	"hash"
	"math"
	"testing"

	"gendt/internal/dataset"
)

// fnvFloats feeds the little-endian IEEE-754 bits of each value to h.
func fnvFloats(h hash.Hash64, vs []float64) {
	var buf [8]byte
	for _, v := range vs {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
}

func trainTiny(t *testing.T, workers int) (*Model, TrainResult, []*Sequence) {
	t.Helper()
	d := dataset.NewDatasetA(tinyData)
	chans := StandardChannels()
	cfg := tinyConfig(chans)
	cfg.Workers = workers
	seqs := PrepareAll(d.TrainRuns(), chans, cfg.MaxCells)
	m := NewModel(cfg)
	res := m.Train(seqs, nil)
	return m, res, seqs
}

// trainGolden is one pinned training outcome: the window count, the final
// epoch's losses and the fingerprint of every trained weight.
type trainGolden struct {
	windows    int
	fp         uint64
	mse, dloss float64
}

// check compares a trained model and its result with g, bit for bit.
func (g trainGolden) check(t *testing.T, m *Model, res TrainResult) {
	t.Helper()
	if res.Windows != g.windows {
		t.Errorf("windows = %d, want %d", res.Windows, g.windows)
	}
	if res.FinalMSE != g.mse {
		t.Errorf("FinalMSE = %v, want %v (must be bit-identical)", res.FinalMSE, g.mse)
	}
	if res.FinalDLoss != g.dloss {
		t.Errorf("FinalDLoss = %v, want %v (must be bit-identical)", res.FinalDLoss, g.dloss)
	}
	if fp := m.Fingerprint(); fp != g.fp {
		t.Errorf("fingerprint = %#x, want %#x (must be bit-identical)", fp, g.fp)
	}
}

// TestTrainGolden pins the training loop at every width on the tiny
// fixture. Workers 1 is the original serial per-window loop (the constants
// predate the data-parallel engine); Workers 2 and 3 are the cloned-worker
// mini-batch path; Workers 64 is clamped to one clone per window (45). Any
// drift means a trained bit moved.
func TestTrainGolden(t *testing.T) {
	for _, tc := range []struct {
		workers int
		want    trainGolden
	}{
		{1, trainGolden{45, 0x3b8bee12abd514f, 0.06277261227316246, 1.3729425336730128}},
		{2, trainGolden{45, 0x9a592eab45435211, 0.08241735944565923, 1.3320324934414958}},
		{3, trainGolden{45, 0x89fdd5576e42be39, 0.11107555123454879, 1.2997787128834866}},
		{64, trainGolden{45, 0xb97a4d8ef18bd999, 0.48741185828288686, 1.2713300365283684}},
	} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			m, res, _ := trainTiny(t, tc.workers)
			tc.want.check(t, m, res)
		})
	}
}

// TestBenchFixtureTrainGolden pins one epoch of the benchmark's fixture
// model (world A at seed 1, scale 0.05; Hidden 100, Workers 2): the
// paper-size training the `train` workload times. It takes seconds, so it
// skips under -race.
func TestBenchFixtureTrainGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("paper-size training is too slow under -race")
	}
	d, err := dataset.NewByName("A", dataset.Spec{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Channels: StandardChannels(),
		Hidden:   100, BatchLen: 12, StepLen: 6, MaxCells: 6,
		Epochs: 1, Seed: 1, Workers: 2,
	}
	m := NewModel(cfg)
	res := m.Train(PrepareAll(d.TrainRuns(), cfg.Channels, cfg.MaxCells), nil)
	trainGolden{168, 0x306e8548b663522b, 0.04686949673640883, 1.2120054289768039}.check(t, m, res)
}

// TestParallelTrainReproducible checks that the data-parallel engine is
// deterministic: two independent Workers=3 runs from the same seed agree
// bit-for-bit on weights and losses.
func TestParallelTrainReproducible(t *testing.T) {
	m1, r1, _ := trainTiny(t, 3)
	m2, r2, _ := trainTiny(t, 3)
	if r1 != r2 {
		t.Errorf("TrainResult differs across runs: %+v vs %+v", r1, r2)
	}
	fp1, fp2 := m1.Fingerprint(), m2.Fingerprint()
	if fp1 != fp2 {
		t.Errorf("param fingerprint differs across runs: %#x vs %#x", fp1, fp2)
	}
	if r1.FinalMSE <= 0 || math.IsNaN(r1.FinalMSE) {
		t.Errorf("parallel FinalMSE = %v, want finite positive", r1.FinalMSE)
	}
}

// TestParallelTrainLearns checks the parallel engine actually optimizes:
// final training MSE should land in the same ballpark as the serial loop
// (it differs numerically — mini-batch of W vs per-window steps — but a
// broken reduction would blow this bound immediately).
func TestParallelTrainLearns(t *testing.T) {
	_, rs, _ := trainTiny(t, 1)
	_, rp, _ := trainTiny(t, 3)
	if rp.FinalMSE > 4*rs.FinalMSE {
		t.Errorf("parallel FinalMSE %v far worse than serial %v", rp.FinalMSE, rs.FinalMSE)
	}
}

// TestCloneIndependence checks Clone is a deep copy: mutating the clone's
// weights or stepping its optimizer must not affect the original.
func TestCloneIndependence(t *testing.T) {
	m, _, seqs := trainTiny(t, 1)
	fp := m.Fingerprint()
	c := m.Clone(123)
	if c.Fingerprint() != fp {
		t.Fatal("clone does not start with identical weights")
	}
	for _, p := range c.allParams() {
		for i := range p.W {
			p.W[i] += 1
		}
	}
	if m.Fingerprint() != fp {
		t.Error("mutating clone weights changed the original")
	}
	// The clone must be usable standalone (fresh caches, own RNG).
	out := c.Generate(seqs[0])
	if len(out) != seqs[0].Len() {
		t.Errorf("clone Generate length = %d, want %d", len(out), seqs[0].Len())
	}
}

// TestGenerateAllDeterministicAcrossWorkers checks the parallel inference
// fan-out: for any Workers >= 2 the outputs depend only on the model state
// (seeds are pre-drawn per item), so Workers=2 and Workers=3 must produce
// identical series, and both must be reproducible run-to-run.
func TestGenerateAllDeterministicAcrossWorkers(t *testing.T) {
	gen := func(workers int) [][][]float64 {
		m, _, seqs := trainTiny(t, 1)
		m.Cfg.Workers = workers
		return m.GenerateAll(seqs)
	}
	a, b, c := gen(2), gen(2), gen(3)
	if len(a) == 0 {
		t.Fatal("no sequences generated")
	}
	for i := range a {
		for tt := range a[i] {
			for ch := range a[i][tt] {
				if a[i][tt][ch] != b[i][tt][ch] {
					t.Fatalf("run-to-run mismatch at seq %d t %d ch %d", i, tt, ch)
				}
				if a[i][tt][ch] != c[i][tt][ch] {
					t.Fatalf("Workers=2 vs Workers=3 mismatch at seq %d t %d ch %d", i, tt, ch)
				}
			}
		}
	}
}

// TestPrepareAllParallelMatchesSerial checks the parallel PrepareAll
// produces the same sequences as serial per-run preparation.
func TestPrepareAllParallelMatchesSerial(t *testing.T) {
	d := dataset.NewDatasetA(tinyData)
	chans := StandardChannels()
	runs := d.TrainRuns()
	got := PrepareAll(runs, chans, 6)
	for i, r := range runs {
		want := PrepareSequence(r, chans, 6)
		if got[i].Len() != want.Len() {
			t.Fatalf("seq %d length %d != %d", i, got[i].Len(), want.Len())
		}
		for tt := 0; tt < want.Len(); tt++ {
			for ch := range want.KPIs[tt] {
				if got[i].KPIs[tt][ch] != want.KPIs[tt][ch] {
					t.Fatalf("seq %d KPI mismatch at t %d ch %d", i, tt, ch)
				}
			}
		}
	}
}

// TestParallelUncertaintySmoke checks the parallel MC-dropout fan-out
// yields a finite positive, run-to-run reproducible uncertainty.
func TestParallelUncertaintySmoke(t *testing.T) {
	u := func() float64 {
		m, _, seqs := trainTiny(t, 1)
		m.Cfg.Workers = 3
		return m.ModelUncertainty(seqs[0], 4)
	}
	u1, u2 := u(), u()
	if !(u1 > 0) || math.IsInf(u1, 0) || math.IsNaN(u1) {
		t.Fatalf("ModelUncertainty = %v, want finite positive", u1)
	}
	if u1 != u2 {
		t.Errorf("parallel ModelUncertainty not reproducible: %v vs %v", u1, u2)
	}
}
