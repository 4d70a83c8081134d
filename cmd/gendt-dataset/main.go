// Command gendt-dataset synthesizes a registered scenario (the Dataset
// A/B analogues or any other committed scenario config), prints its
// Table 1/2-style statistics, and optionally exports the measurement runs
// as CSV.
//
// Usage:
//
//	gendt-dataset [-dataset NAME] [-scenario-file F.toml] [-scale F]
//	              [-seed N] [-csv DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gendt/internal/dataset"
	"gendt/internal/export"
)

func main() {
	world := dataset.AddWorldFlags(flag.CommandLine, 0.1, "")
	csvDir := flag.String("csv", "", "directory to export runs as CSV (optional)")
	flag.Parse()

	d, err := world.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gendt-dataset:", err)
		os.Exit(2)
	}

	fmt.Printf("Dataset %s (scale %.2f, seed %d): %d runs, %d cells\n",
		d.Name, world.Scale, world.Seed, len(d.Runs), len(d.World.Deployment.Cells))
	for _, s := range d.Scenarios() {
		fmt.Println("  " + d.ScenarioStats(s).String())
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for i, r := range d.Runs {
			split := "test"
			if r.Train {
				split = "train"
			}
			name := fmt.Sprintf("run_%02d_%s_%s.csv", i, sanitize(r.Scenario), split)
			path := filepath.Join(*csvDir, name)
			if err := export.WriteRunCSV(path, r); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d samples)\n", path, len(r.Meas))
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
