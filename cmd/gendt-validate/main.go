// Command gendt-validate runs the statistical model-quality gate over a
// trained model (or training checkpoint): distributional checks against
// simulator ground truth on held-out routes, gated by a committed golden
// tolerance file, plus metamorphic invariants (seed determinism across the
// serial and parallel paths, permutation invariance, truncation
// consistency, physical monotonicity) that need no ground truth, plus one
// served check that replays every request the gate made over a
// /v1/generate endpoint and requires the model's own answers bit for bit.
//
// Usage:
//
//	gendt-validate -model model.json -golden validate/golden/gate-a.json
//	               [-dataset NAME] [-scenario-file F.toml]
//	               [-scale F] [-seed N] [-routes N]
//	               [-samples N] [-max-route-len N] [-workers N]
//	               [-precision f64|f32|int8]
//	               [-update-golden] [-corrupt SIGMA] [-corrupt-out PATH]
//	               [-json]
//	               [-target http://replica:8081] [-target-model NAME]
//
// -precision freezes the model to that backend before the gate runs. The
// served check replays against a loopback replica of the model, or with
// -target against a live replica: the replica passes only if it serves
// exactly the -model candidate at that precision and in that world — the
// gate a rolling rollout runs per replica.
//
// The report goes to stdout (with -json, stdout is exactly one JSON
// document); progress and the closing summary go to stderr.
//
// Exit status: 0 all checks passed; 1 at least one check failed (each
// failure is printed as "FAIL <name>"); 2 usage or setup error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/validate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gendt-validate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "", "trained model or training checkpoint to validate (required)")
	world := dataset.AddWorldFlags(fs, 0.05, " (must match training)")
	fs.Lookup("seed").Usage += "; also the validation seed that drives every generation in the suite"
	routes := fs.Int("routes", 4, "held-out routes for the distributional pass")
	samples := fs.Int("samples", 2, "generation samples per route")
	maxRouteLen := fs.Int("max-route-len", 150, "truncate held-out routes to N samples (negative = full routes)")
	workers := fs.Int("workers", 4, "parallel width for the Workers=N determinism check")
	golden := fs.String("golden", "", "golden tolerance file for the distributional gates")
	updateGolden := fs.Bool("update-golden", false, "derive tolerances from this run and write them to -golden")
	corrupt := fs.Float64("corrupt", 0, "perturb every weight with Gaussian noise of this sigma before validating (negative-control hook)")
	corruptOut := fs.String("corrupt-out", "", "write the (possibly corrupted) in-memory model to this path and exit 0 — builds rollback-test candidates")
	target := fs.String("target", "", "replay the served check against the replica at this base URL instead of a loopback one")
	targetModel := fs.String("target-model", "", "registered model name on the -target replica (empty = its single-model default)")
	precision := fs.String("precision", "", "backend to validate: f64 (live model, default), f32, or int8 (frozen inference kernels)")
	asJSON := fs.Bool("json", false, "print the full report as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err any) int {
		fmt.Fprintln(stderr, "gendt-validate:", err)
		return 2
	}
	switch {
	case *model == "":
		fmt.Fprintln(stderr, "gendt-validate: -model is required")
		fs.Usage()
		return 2
	case *updateGolden && *golden == "":
		return fail("-update-golden requires -golden (the path to write)")
	case *updateGolden && *corrupt != 0:
		return fail("refusing to derive golden tolerances from a corrupted model")
	}

	// core.LoadFile sniffs the format: plain model snapshots and training
	// checkpoints both load (a checkpoint yields the model at that epoch).
	m, err := core.LoadFile(*model)
	if err != nil {
		return fail(err)
	}
	if *corrupt != 0 {
		fmt.Fprintf(stderr, "corrupting model: gaussian sigma=%g over %d weights\n", *corrupt, m.ParamCount())
		m.PerturbWeights(*corrupt, world.Seed+1)
	}
	if *corruptOut != "" {
		if err := m.SaveFile(*corruptOut); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "wrote model (corrupt sigma=%g) to %s\n", *corrupt, *corruptOut)
		return 0
	}

	prec, err := core.ParsePrecision(*precision)
	if err != nil {
		return fail(err)
	}
	var g core.Generator = m
	if prec != core.PrecisionF64 {
		im, err := m.Freeze(prec)
		if err != nil {
			return fail(err)
		}
		g = im
	}

	ds, err := world.Build()
	if err != nil {
		return fail(err)
	}
	opts := validate.Options{
		Dataset: ds, Routes: *routes, SamplesPerRoute: *samples,
		MaxRouteLen: *maxRouteLen, Seed: world.Seed, Workers: *workers,
		Target: strings.TrimRight(*target, "/"), TargetModel: *targetModel,
		Logf: func(f string, a ...any) { fmt.Fprintf(stderr, f+"\n", a...) },
	}
	if *golden != "" && !*updateGolden {
		if opts.Golden, err = validate.LoadGolden(*golden); err != nil {
			return fail(err)
		}
	}

	rep, err := validate.Run(g, opts)
	if err != nil {
		return fail(err)
	}

	if *updateGolden {
		gold := rep.DeriveGolden(opts)
		if err := gold.Save(*golden); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "wrote golden tolerances for %d channels to %s\n", len(gold.Channels), *golden)
	}

	if *asJSON {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		fmt.Fprint(stdout, rep)
	}

	if fails := rep.Failures(); len(fails) > 0 {
		for _, c := range fails {
			fmt.Fprintf(stderr, "FAIL %s\n", c.Name)
		}
		fmt.Fprintf(stderr, "gendt-validate: %d of %d checks failed\n", len(fails), len(rep.Checks))
		return 1
	}
	fmt.Fprintf(stderr, "gendt-validate: all %d checks passed\n", len(rep.Checks))
	return 0
}
