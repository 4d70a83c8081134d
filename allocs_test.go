package gendt

import (
	"fmt"
	"testing"

	"gendt/internal/core"
)

// TestGenerateAllocs pins the steady-state allocations of one generation
// call on the quick-scale fixture at Workers = 1: the live f64 model, the
// frozen engine at width 1 (GenerateSeeded) and at 1, 4 and 8 jobs in
// lockstep (GenerateJobs), both precisions. Recurrent state and scratch
// are pooled, so what is left is the output that escapes to the caller;
// a bound that moves means a buffer stopped being reused.
func TestGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops entries at random and the pooled engine is rebuilt mid-measurement")
	}
	train, test, cfg := benchModelSetup(1)
	m := NewModel(cfg)
	m.Train(train, nil)

	// AllocsPerRun makes one untimed call first, so the pooled engine
	// exists before anything is counted.
	check := func(name string, want float64, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(20, f); got > want {
			t.Errorf("%s: %.0f allocs/op, want <= %.0f", name, got, want)
		}
	}
	check("f64 Generate", 11, func() { m.Generate(test) })
	for _, p := range []Precision{PrecisionF32, PrecisionInt8} {
		im, err := m.Freeze(p)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%s GenerateSeeded", p), 2, func() { im.GenerateSeeded(test, 1) })
		g := im.WithWorkers(1)
		for _, c := range []struct {
			jobs int
			want float64
		}{{1, 6}, {4, 15}, {8, 27}} {
			jobs := make([]core.GenJob, c.jobs)
			for i := range jobs {
				jobs[i] = core.GenJob{Seq: test, Seed: core.DeriveSeed(1, i)}
			}
			check(fmt.Sprintf("%s GenerateJobs x%d", p, c.jobs), c.want, func() { g.GenerateJobs(jobs) })
		}
	}
}
