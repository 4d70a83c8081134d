// Command benchmark is the repository's performance benchmark: one
// paper-scale fixture (Hidden=100 GenDT model on the gendt-serve default
// world) measured end to end and layer by layer on five workloads. It
// measures the layers from outside — wrappers and direct timed calls — and
// claims no gain; it is the ruler later changes are measured with. See
// README.md beside this file.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash benchmark/run.sh --agree 3
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"gendt/internal/core"
)

// setupReps is how many times an untraced run sets up; setup_s is the median.
const setupReps = 3

// outDir receives span files; it is inside the benchmark's own directory.
var outDir = filepath.Join("benchmark", "out")

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed for routes, request seeds, arrival times and initial weights")
	seconds := flag.Float64("seconds", 15, "how long the run measures")
	trace := flag.Int("trace", 0, "1 records spans and a CPU profile and prints the per-layer metrics instead of the end-to-end ones")
	agree := flag.Int("agree", 0, "run every workload N times in each of two sets and compare the sets against the bounds")
	flag.Parse()

	if *agree > 0 {
		os.Exit(runAgree(*agree, *seed, *seconds))
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seed <= 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seed and -seconds must be positive")
		os.Exit(2)
	}
	res, err := run(wl, *seed, *seconds, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s seed %d seconds %g trace %d\nwhy: %s\n", wl.name, *seed, *seconds, *trace, wl.why)
	fmt.Printf("nproc %d, %s, cpu %q\n", nproc(), runtime.Version(), cpuModel())
	specs := endToEnd
	if *trace != 0 {
		specs = perLayer
	}
	if err := writeReport(os.Stdout, res, specs); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// run executes one workload once.
func run(wl workload, seed int64, seconds float64, traced bool) (result, error) {
	switch wl.name {
	case "bulk-f32":
		return runBulk(wl, core.PrecisionF32, seed, seconds, traced)
	case "bulk-int8":
		return runBulk(wl, core.PrecisionInt8, seed, seconds, traced)
	case "serve-short", "serve-envelope":
		return runServing(wl, seed, seconds, traced)
	case "train":
		return runTrain(wl, seed, seconds, traced)
	}
	return result{}, fmt.Errorf("workload %q has no runner", wl.name)
}

// cpuModel reads the processor's name; empty where /proc does not give one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// runAgree runs every workload n times in each of two sets, with a different
// seed every time, and compares the sets the way the driver does: a metric
// whose spread within a set exceeds its bound, or whose second median is
// worse than the first by more than its bound, is unresolved. It returns the
// process's exit code.
func runAgree(n int, seed int64, seconds float64) int {
	unresolved := 0
	for _, wl := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				res, err := run(wl, seed+int64(s*n+i), seconds, false)
				if err != nil || !res.correct {
					fmt.Printf("%s set %d run %d failed: %v %v\n", wl.name, s+1, i+1, err, res.notes)
					return 1
				}
				for _, m := range endToEnd {
					sets[s][m.name] = append(sets[s][m.name], res.metrics[m.name])
				}
			}
		}
		for _, m := range endToEnd {
			a, b := sets[0][m.name], sets[1][m.name]
			verdict := agreement(m, a, b)
			if verdict != "ok" {
				unresolved++
			}
			fmt.Printf("%-15s %-12s %s\n", wl.name, m.name, describe(a, b, m.unit, verdict))
		}
	}
	if unresolved > 0 {
		fmt.Printf("%d metric(s) unresolved\n", unresolved)
		return 1
	}
	return 0
}

// agreement says whether two sets of runs of the same code agree within the
// metric's bound. setup_s is exempt from the spread rule, as in the driver.
func agreement(m metricSpec, a, b []float64) string {
	if len(a) >= 2 && m.name != "setup_s" {
		for _, set := range [][]float64{a, b} {
			if s := spread(set); s > m.bound {
				return fmt.Sprintf("UNRESOLVED: spread %.1f%% exceeds the bound of %.0f%%", 100*s, 100*m.bound)
			}
		}
	}
	ma, mb := a[0], b[0]
	if len(a) >= 2 {
		_, ma, _ = quartiles(a)
		_, mb, _ = quartiles(b)
	}
	worse := (mb - ma) / ma
	if m.better == "higher" {
		worse = -worse
	}
	if worse > m.bound {
		return fmt.Sprintf("UNRESOLVED: second set's median is %.1f%% worse, the bound is %.0f%%", 100*worse, 100*m.bound)
	}
	return "ok"
}

func describe(a, b []float64, unit, verdict string) string {
	part := func(xs []float64) string {
		if len(xs) < 2 {
			return fmt.Sprintf("%.4f", xs[0])
		}
		q1, q2, q3 := quartiles(xs)
		return fmt.Sprintf("%.4f [%.4f %.4f]", q2, q1, q3)
	}
	return fmt.Sprintf("%s | %s %s  %s", part(a), part(b), unit, verdict)
}
