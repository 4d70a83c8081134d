package dataset

import (
	"errors"
	"flag"
	"math"
	"strconv"
	"strings"

	"gendt/internal/scenario"
)

// NameFlags is the -dataset / -scenario-file pair: the one declaration of
// how a binary names a world.
type NameFlags struct {
	Dataset      string
	ScenarioFile string
	fs           *flag.FlagSet
}

// WorldFlags adds -scale and -seed: everything a binary needs to build the
// world it was asked for.
type WorldFlags struct {
	*NameFlags
	Scale float64
	Seed  int64
}

// AddNameFlags registers -dataset and -scenario-file on fs. note is
// appended to the -dataset help (e.g. " (must match training)").
func AddNameFlags(fs *flag.FlagSet, note string) *NameFlags {
	n := &NameFlags{fs: fs}
	fs.StringVar(&n.Dataset, "dataset", "A",
		"world to build, a registered scenario name: "+strings.Join(scenario.Names(), ", ")+note)
	fs.StringVar(&n.ScenarioFile, "scenario-file", "",
		"load a scenario config file; it is registered under its [scenario] name and becomes the default -dataset")
	return n
}

// AddWorldFlags registers -dataset, -scenario-file, -scale (with the
// binary's own default) and -seed on fs; note is appended to their help.
func AddWorldFlags(fs *flag.FlagSet, scale float64, note string) *WorldFlags {
	w := &WorldFlags{NameFlags: AddNameFlags(fs, note), Scale: scale}
	fs.Var((*scaleValue)(&w.Scale), "scale", "dataset scale, a `fraction` of the paper's sample counts"+note)
	fs.Int64Var(&w.Seed, "seed", 1, "dataset seed"+note)
	return w
}

// Name registers -scenario-file (if given) and picks the scenario name: an
// explicit -dataset wins, otherwise the loaded file's [scenario] name.
// Call it after fs is parsed.
func (n *NameFlags) Name() (string, error) {
	if n.ScenarioFile == "" {
		return n.Dataset, nil
	}
	sc, err := scenario.RegisterFile(n.ScenarioFile)
	if err != nil {
		return "", err
	}
	name := sc.Name
	n.fs.Visit(func(f *flag.Flag) {
		if f.Name == "dataset" {
			name = n.Dataset
		}
	})
	return name, nil
}

// Build resolves the name and builds the world.
func (w *WorldFlags) Build() (*Dataset, error) {
	name, err := w.Name()
	if err != nil {
		return nil, err
	}
	return NewByName(name, Spec{Seed: w.Seed, Scale: w.Scale})
}

// errBadScale rejects a -scale that is not a finite number above zero.
// Spec's zero value means full scale, so without the check `-scale 0`
// would silently build the paper-sized world and NaN would reach the
// compiler as NaN durations.
var errBadScale = errors.New("dataset scale must be a finite number above 0")

// scaleValue is the flag.Value behind -scale; the flag package reports a
// Set error as `invalid value "0" for flag -scale: ...` and exits 2.
type scaleValue float64

func (v *scaleValue) String() string { return strconv.FormatFloat(float64(*v), 'g', -1, 64) }

func (v *scaleValue) Set(s string) error {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	if !(f > 0) || math.IsInf(f, 0) {
		return errBadScale
	}
	*v = scaleValue(f)
	return nil
}
