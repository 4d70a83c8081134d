package core

import (
	"testing"

	"gendt/internal/dataset"
)

// truncSeq returns a prefix view of seq (shared backing — read-only use).
func truncSeq(seq *Sequence, n int) *Sequence {
	if n > seq.Len() {
		n = seq.Len()
	}
	return &Sequence{
		KPIs: seq.KPIs[:n], Cells: seq.Cells[:n], Env: seq.Env[:n],
		Interval: seq.Interval,
	}
}

// raggedJobs is 11 jobs — more than batchLanes and not a multiple, so the
// last chunk is ragged — over mixed lengths that exercise window-level
// lane retirement (length differences spanning BatchLen windows) and the
// per-timestep prefix shrink.
func raggedJobs(m *Model, seq *Sequence) []GenJob { return raggedJobsN(m, seq, 11) }

// raggedJobsN is n jobs cycling over raggedJobs' six lengths.
func raggedJobsN(m *Model, seq *Sequence, n int) []GenJob {
	L := m.Cfg.BatchLen
	seqs := []*Sequence{
		seq,
		truncSeq(seq, seq.Len()-1),
		truncSeq(seq, L+1),
		truncSeq(seq, L),
		truncSeq(seq, L-1),
		truncSeq(seq, 1),
	}
	var jobs []GenJob
	for i := 0; i < n; i++ {
		jobs = append(jobs, GenJob{Seq: seqs[i%len(seqs)], Seed: DeriveSeed(99, i)})
	}
	return jobs
}

// TestGenerateJobsSplitBitIdentical: however GenerateJobs cuts a call —
// one chunk per worker for calls too small to fill the workers, 8-wide
// chunks otherwise, ragged remainders either way — every job's output
// equals that job alone through GenerateSeeded, per precision, for every
// call size from one job to past two full chunks.
func TestGenerateJobsSplitBitIdentical(t *testing.T) {
	m, seq := freezeFixture(t)
	jobs := raggedJobsN(m, seq, 17)
	for _, p := range []Precision{PrecisionF32, PrecisionInt8} {
		im, err := m.Freeze(p)
		if err != nil {
			t.Fatal(err)
		}
		alone := make([][][]float64, len(jobs))
		for i, j := range jobs {
			alone[i] = im.DenormalizeSeries(im.GenerateSeeded(j.Seq, j.Seed))
		}
		for _, workers := range []int{1, 2, 3, 8} {
			g := im.WithWorkers(workers)
			for n := 1; n <= len(jobs); n++ {
				got := g.GenerateJobs(jobs[:n])
				for i := range got {
					if !series2Equal(got[i], alone[i]) {
						t.Fatalf("%s, Workers %d, %d jobs: job %d (T=%d) differs from GenerateSeeded", p, workers, n, i, jobs[i].Seq.Len())
					}
				}
			}
		}
	}
}

// TestBatchedGenerateJobsBitIdentical is the engine's contract: a job's
// output does not depend on what shares the engine with it. GenerateJobs
// (chunks of up to 8) and per-job GenerateSeeded (width 1) must be byte-equal,
// per precision, across mixed sequence lengths (ragged lane retirement),
// chunk boundaries, and worker fan-out widths.
func TestBatchedGenerateJobsBitIdentical(t *testing.T) {
	m, seq := freezeFixture(t)
	jobs := raggedJobs(m, seq)
	for _, p := range []Precision{PrecisionF32, PrecisionInt8} {
		im, err := m.Freeze(p)
		if err != nil {
			t.Fatal(err)
		}
		batched := im.WithWorkers(1).GenerateJobs(jobs)
		parallel := im.WithWorkers(3).GenerateJobs(jobs)
		for i, job := range jobs {
			direct := im.DenormalizeSeries(im.GenerateSeeded(job.Seq, job.Seed))
			if !series2Equal(batched[i], direct) {
				t.Fatalf("%s: job %d (T=%d): GenerateJobs vs direct GenerateSeeded (width 1) differ", p, i, job.Seq.Len())
			}
			if !series2Equal(batched[i], parallel[i]) {
				t.Fatalf("%s: job %d: Workers=1 vs Workers=3 differ", p, i)
			}
		}
		// Repeat on the same engine pool: state reuse must not leak.
		again := im.WithWorkers(1).GenerateJobs(jobs)
		for i := range jobs {
			if !series2Equal(batched[i], again[i]) {
				t.Fatalf("%s: job %d: repeat on pooled engine differs", p, i)
			}
		}
	}
}

// TestBatchedGenerateJobsAblations covers the engine under the NoSRNN
// (no stochastic modulation) and NoResGen (no residual head) ablations,
// whose code paths skip whole draw phases, at both frozen precisions.
func TestBatchedGenerateJobsAblations(t *testing.T) {
	for _, ablate := range []string{"nosrnn", "noresgen"} {
		t.Run(ablate, func(t *testing.T) {
			d := dataset.NewDatasetA(tinyData)
			chans := RSRPRSRQChannels()
			cfg := tinyConfig(chans)
			switch ablate {
			case "nosrnn":
				cfg.NoSRNN = true
			case "noresgen":
				cfg.NoResGen = true
			}
			m := NewModel(cfg)
			train := PrepareAll(d.TrainRuns(), chans, m.Cfg.MaxCells)
			m.Train(train, nil)
			seq := PrepareAll(d.TestRuns(), chans, m.Cfg.MaxCells)[0]
			jobs := []GenJob{
				{Seq: seq, Seed: 3},
				{Seq: truncSeq(seq, seq.Len()/2), Seed: 4},
				{Seq: seq, Seed: 5},
			}
			for _, p := range []Precision{PrecisionF32, PrecisionInt8} {
				im, err := m.Freeze(p)
				if err != nil {
					t.Fatal(err)
				}
				batched := im.WithWorkers(1).GenerateJobs(jobs)
				for i, job := range jobs {
					direct := im.DenormalizeSeries(im.GenerateSeeded(job.Seq, job.Seed))
					if !series2Equal(batched[i], direct) {
						t.Fatalf("%s %s: job %d: batched vs direct differ", ablate, p, i)
					}
				}
			}
		})
	}
}
