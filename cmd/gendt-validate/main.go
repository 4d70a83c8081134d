// Command gendt-validate runs the statistical model-quality gate over a
// trained model (or training checkpoint): distributional checks against
// simulator ground truth on held-out routes, gated by a committed golden
// tolerance file, plus metamorphic invariants (seed determinism across the
// serial/parallel/HTTP paths, permutation invariance, truncation
// consistency, physical monotonicity) that need no ground truth.
//
// Usage:
//
//	gendt-validate -model model.json -golden validate/golden/gate-a.json
//	               [-dataset NAME] [-scenario-file F.toml]
//	               [-scale F] [-seed N] [-routes N]
//	               [-samples N] [-max-route-len N] [-workers N]
//	               [-precision f64|f32|int8]
//	               [-update-golden] [-corrupt SIGMA] [-corrupt-out PATH]
//	               [-skip-http] [-json]
//	               [-target http://replica:8081] [-target-model NAME]
//
// With -target the suite validates what a live replica actually serves:
// the distributional pass fetches samples over the replica's /v1/generate
// (same seeds as the local pass, same golden tolerances) and the
// metamorphic pass adds remote determinism, remote truncation/monotonicity,
// and a bit-identity check that the replica serves exactly the -model
// candidate — the gate a rolling rollout runs per replica.
//
// Exit status: 0 all checks passed; 1 at least one check failed (each
// failure is printed as "FAIL <name>"); 2 usage or setup error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/validate"
)

func main() {
	model := flag.String("model", "", "trained model or training checkpoint to validate (required)")
	world := dataset.AddWorldFlags(flag.CommandLine, 0.05, " (must match training)")
	flag.Lookup("seed").Usage += "; also the validation seed that drives every generation in the suite"
	routes := flag.Int("routes", 4, "held-out routes for the distributional pass")
	samples := flag.Int("samples", 2, "generation samples per route")
	maxRouteLen := flag.Int("max-route-len", 150, "truncate held-out routes to N samples (negative = full routes)")
	workers := flag.Int("workers", 4, "parallel width for the Workers=N determinism check")
	golden := flag.String("golden", "", "golden tolerance file for the distributional gates")
	updateGolden := flag.Bool("update-golden", false, "derive tolerances from this run and write them to -golden")
	corrupt := flag.Float64("corrupt", 0, "perturb every weight with Gaussian noise of this sigma before validating (negative-control hook)")
	corruptOut := flag.String("corrupt-out", "", "write the (possibly corrupted) in-memory model to this path and exit 0 — builds rollback-test candidates")
	target := flag.String("target", "", "validate a live replica at this base URL instead of the in-process model")
	targetModel := flag.String("target-model", "", "registered model name on the -target replica (empty = its single-model default)")
	precision := flag.String("precision", "", "backend to validate: f64 (live model, default), f32, or int8 (frozen inference kernels)")
	skipHTTP := flag.Bool("skip-http", false, "skip the HTTP /v1/generate determinism check")
	asJSON := flag.Bool("json", false, "print the full report as JSON instead of text")
	flag.Parse()

	if *model == "" {
		fmt.Fprintln(os.Stderr, "gendt-validate: -model is required")
		flag.Usage()
		os.Exit(2)
	}
	if *updateGolden && *golden == "" {
		fmt.Fprintln(os.Stderr, "gendt-validate: -update-golden requires -golden (the path to write)")
		os.Exit(2)
	}
	if *updateGolden && *corrupt != 0 {
		fmt.Fprintln(os.Stderr, "gendt-validate: refusing to derive golden tolerances from a corrupted model")
		os.Exit(2)
	}

	// core.LoadFile sniffs the format: plain model snapshots and training
	// checkpoints both load (a checkpoint yields the model at that epoch).
	m, err := core.LoadFile(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gendt-validate:", err)
		os.Exit(2)
	}
	if *corrupt != 0 {
		fmt.Printf("corrupting model: gaussian sigma=%g over %d weights\n", *corrupt, m.ParamCount())
		m.PerturbWeights(*corrupt, world.Seed+1)
	}
	if *corruptOut != "" {
		if err := m.SaveFile(*corruptOut); err != nil {
			fmt.Fprintln(os.Stderr, "gendt-validate:", err)
			os.Exit(2)
		}
		fmt.Printf("wrote model (corrupt sigma=%g) to %s\n", *corrupt, *corruptOut)
		return
	}

	ds, err := world.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gendt-validate:", err)
		os.Exit(2)
	}

	prec, err := core.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gendt-validate:", err)
		os.Exit(2)
	}
	opts := validate.Options{
		Dataset: ds, Routes: *routes, SamplesPerRoute: *samples,
		MaxRouteLen: *maxRouteLen, Seed: world.Seed, Workers: *workers,
		SkipHTTP:  *skipHTTP,
		Precision: prec,
		Logf:      func(f string, a ...any) { fmt.Printf(f+"\n", a...) },
	}
	if *golden != "" && !*updateGolden {
		opts.Golden, err = validate.LoadGolden(*golden)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gendt-validate:", err)
			os.Exit(2)
		}
	}

	var rep *validate.Report
	if *target != "" {
		rep, err = validate.RunRemote(m, validate.RemoteOptions{
			Target: strings.TrimRight(*target, "/"), Model: *targetModel,
		}, opts)
	} else {
		rep, err = validate.Run(m, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gendt-validate:", err)
		os.Exit(2)
	}

	if *updateGolden {
		g := rep.DeriveGolden(opts)
		if err := g.Save(*golden); err != nil {
			fmt.Fprintln(os.Stderr, "gendt-validate:", err)
			os.Exit(2)
		}
		fmt.Printf("wrote golden tolerances for %d channels to %s\n", len(g.Channels), *golden)
	}

	if *asJSON {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "gendt-validate:", err)
			os.Exit(2)
		}
		fmt.Println(string(out))
	} else {
		fmt.Print(rep)
	}

	if fails := rep.Failures(); len(fails) > 0 {
		for _, c := range fails {
			fmt.Printf("FAIL %s\n", c.Name)
		}
		fmt.Printf("gendt-validate: %d of %d checks failed\n", len(fails), len(rep.Checks))
		os.Exit(1)
	}
	fmt.Printf("gendt-validate: all %d checks passed\n", len(rep.Checks))
}
