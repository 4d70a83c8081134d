package core

import (
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"gendt/internal/dataset"
)

// paramFingerprint hashes every trained weight (FNV-64a over the IEEE-754
// bits, in the stable allParams order), so two models compare bit-for-bit.
func paramFingerprint(m *Model) uint64 {
	h := fnv.New64a()
	for _, p := range m.allParams() {
		fnvFloats(h, p.W)
	}
	return h.Sum64()
}

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

// TestSerialTrainGolden pins the Workers=1 training loop to the exact
// result of the original (pre-data-parallel) serial implementation. The
// constants below were captured from that implementation on this test
// fixture; any drift means the serial path is no longer bit-identical.
func TestSerialTrainGolden(t *testing.T) {
	m, res, _ := trainTiny(t, 1)
	const (
		wantFP      = uint64(0x3b8bee12abd514f)
		wantWindows = 45
		wantMSE     = 0.06277261227316246
		wantDLoss   = 1.3729425336730128
	)
	if res.Windows != wantWindows {
		t.Errorf("windows = %d, want %d", res.Windows, wantWindows)
	}
	if res.FinalMSE != wantMSE {
		t.Errorf("FinalMSE = %v, want %v (must be bit-identical)", res.FinalMSE, wantMSE)
	}
	if res.FinalDLoss != wantDLoss {
		t.Errorf("FinalDLoss = %v, want %v (must be bit-identical)", res.FinalDLoss, wantDLoss)
	}
	if fp := paramFingerprint(m); fp != wantFP {
		t.Errorf("param fingerprint = %#x, want %#x (must be bit-identical)", fp, wantFP)
	}
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
	fp1, fp2 := paramFingerprint(m1), paramFingerprint(m2)
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
	fp := paramFingerprint(m)
	c := m.Clone(123)
	if paramFingerprint(c) != fp {
		t.Fatal("clone does not start with identical weights")
	}
	for _, p := range c.allParams() {
		for i := range p.W {
			p.W[i] += 1
		}
	}
	if paramFingerprint(m) != fp {
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
