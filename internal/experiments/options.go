// Package experiments contains one harness per table and figure of the
// paper's evaluation (§3, §6, §C). Each harness builds the simulated
// datasets, trains GenDT and the baselines, and returns the same rows or
// series the paper reports, at a configurable scale.
package experiments

import (
	"gendt/internal/core"
	"gendt/internal/dataset"
)

// Options scales the experiments. Defaults (via DefaultOptions) run the
// full suite on a laptop CPU in minutes; QuickOptions shrinks everything
// for benchmarks and smoke tests.
type Options struct {
	Seed  int64
	Scale float64 // dataset scale relative to the paper's sample counts

	Hidden   int // GenDT / baseline hidden size
	Epochs   int // GenDT epochs
	BatchLen int
	StepLen  int
	MaxCells int

	// Workers is the data-parallel width passed to core.Config.Workers
	// (0 = runtime.NumCPU()). QuickOptions pins 1 so smoke runs and
	// benchmarks exercise the deterministic serial loop.
	Workers int

	BaselineEpochs int // epochs for MLP / LSTM-GNN / DG
}

// DefaultOptions returns the standard experiment scale: ~10% of the
// paper's sample counts with moderately sized models — large enough for
// the paper's qualitative shapes, small enough for CPU.
func DefaultOptions() Options {
	return Options{
		Seed:           1,
		Scale:          0.08,
		Hidden:         48,
		Epochs:         40,
		BatchLen:       24,
		StepLen:        6,
		MaxCells:       10,
		BaselineEpochs: 8,
	}
}

// QuickOptions returns a heavily scaled-down configuration for benchmarks
// and CI smoke runs.
func QuickOptions() Options {
	return Options{
		Seed:           1,
		Scale:          0.02,
		Hidden:         12,
		Epochs:         4,
		BatchLen:       12,
		StepLen:        6,
		MaxCells:       6,
		Workers:        1,
		BaselineEpochs: 2,
	}
}

// spec is the world every harness builds: the options' seed and scale.
func (o Options) spec() dataset.Spec { return dataset.Spec{Seed: o.Seed, Scale: o.Scale} }

// DatasetA builds the Dataset A analogue at the options' seed and scale.
func (o Options) DatasetA() *dataset.Dataset { return dataset.NewDatasetA(o.spec()) }

// DatasetB builds the Dataset B analogue at the options' seed and scale.
func (o Options) DatasetB() *dataset.Dataset { return dataset.NewDatasetB(o.spec()) }

// gendtConfig builds a GenDT config for the given channels.
func (o Options) gendtConfig(chans []core.ChannelSpec) core.Config {
	return core.Config{
		Channels: chans,
		Hidden:   o.Hidden,
		BatchLen: o.BatchLen,
		StepLen:  o.StepLen,
		MaxCells: o.MaxCells,
		Epochs:   o.Epochs,
		Seed:     o.Seed,
		Workers:  o.Workers,
	}
}
