package dataset

import (
	"os"
	"runtime"
	"testing"
)

// Committed fingerprints of the worlds every golden, trained model and
// benchmark in the repo was built against. They were captured from the
// hand-written NewDatasetA/NewDatasetB constructors at commit 284ec64,
// immediately before those were deleted in favour of
// scenarios/dataset-{a,b}.toml; nothing compares against a second
// implementation any more. If one changes, dataset synthesis no longer
// reproduces those bytes.
const (
	goldenFingerprintA = 0x7d285f8fc7615375 // seed 42, scale 0.05
	goldenFingerprintB = 0x3785e9e56fd8c985 // seed 42, scale 0.05

	goldenFingerprintABench = 0xbb678512598aa483 // seed 1, scale 0.05: the benchmark fixture's world
	goldenFingerprintASmoke = 0x978b76e07ffd984f // seed 7, scale 0.02: every CI smoke's world

	goldenFingerprintAFull = 0xe507ead5aa6fec47 // seed 42, scale 1.0
	goldenFingerprintBFull = 0x001076d73180bd18 // seed 42, scale 1.0

	// LongComplexRun over B at seed 42, scale 0.05: B's cells plus the
	// long run's trajectory and measurements.
	goldenFingerprintLong = 0x74b40e2d409c1a30
)

type goldenCase struct {
	name string
	spec Spec
	want uint64
}

func checkGolden(t *testing.T, cases []goldenCase) {
	t.Helper()
	for _, tc := range cases {
		d, err := NewByName(tc.name, tc.spec)
		if err != nil {
			t.Fatalf("NewByName(%q, %+v): %v", tc.name, tc.spec, err)
		}
		if got := d.Fingerprint(); got != tc.want {
			t.Errorf("%s %+v: fingerprint %#x, committed golden %#x", tc.name, tc.spec, got, tc.want)
		}
	}
}

// TestScenarioGoldenBitIdentity pins the registry-built A and B — cells,
// trajectories, measurements, bit for bit — to the committed constants.
func TestScenarioGoldenBitIdentity(t *testing.T) {
	checkGolden(t, []goldenCase{
		{"A", Spec{Seed: 42, Scale: 0.05}, goldenFingerprintA},
		{"B", Spec{Seed: 42, Scale: 0.05}, goldenFingerprintB},
		{"A", Spec{Seed: 1, Scale: 0.05}, goldenFingerprintABench},
		{"A", Spec{Seed: 7, Scale: 0.02}, goldenFingerprintASmoke},
	})
	// NewDatasetA/B are the same lookup, so they land on the same bytes.
	if got := NewDatasetA(Spec{Seed: 42, Scale: 0.05}).Fingerprint(); got != goldenFingerprintA {
		t.Errorf("NewDatasetA: fingerprint %#x, committed golden %#x", got, uint64(goldenFingerprintA))
	}
	spec := Spec{Seed: 42, Scale: 0.05}
	b := NewDatasetB(spec)
	if got := b.Fingerprint(); got != goldenFingerprintB {
		t.Errorf("NewDatasetB: fingerprint %#x, committed golden %#x", got, uint64(goldenFingerprintB))
	}
	long := &Dataset{Name: "Long", World: b.World, Runs: []Run{LongComplexRun(b, spec)}}
	if got := long.Fingerprint(); got != goldenFingerprintLong {
		t.Errorf("LongComplexRun(B): fingerprint %#x, committed golden %#x", got, uint64(goldenFingerprintLong))
	}
}

// TestBuildIndependentOfProcs pins the concurrent drive-test fan-out: a
// world built on one core, on two, or on more goroutines than the machine
// has, is the same world bit for bit — and A's is the benchmark's golden.
func TestBuildIndependentOfProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range []string{"A", "NR5G"} {
		var first uint64
		for i, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			d, err := NewByName(name, Spec{Seed: 1, Scale: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			got := d.Fingerprint()
			if i == 0 {
				first = got
			} else if got != first {
				t.Errorf("%s at GOMAXPROCS=%d: fingerprint %#x, %#x at 1", name, procs, got, first)
			}
			if name == "A" && got != goldenFingerprintABench {
				t.Errorf("A at GOMAXPROCS=%d: fingerprint %#x, committed golden %#x", procs, got, uint64(goldenFingerprintABench))
			}
		}
	}
}

// TestScenarioGoldenBitIdentityFullScale repeats the pin at Scale=1.0 —
// the paper-sized datasets, which take most of a minute to build, so the
// test only runs when asked:
// GENDT_FULL_SCALE_GOLDEN=1 go test ./internal/dataset -run FullScale
func TestScenarioGoldenBitIdentityFullScale(t *testing.T) {
	if os.Getenv("GENDT_FULL_SCALE_GOLDEN") == "" {
		t.Skip("set GENDT_FULL_SCALE_GOLDEN=1 to run the full-scale pin")
	}
	checkGolden(t, []goldenCase{
		{"A", Spec{Seed: 42, Scale: 1.0}, goldenFingerprintAFull},
		{"B", Spec{Seed: 42, Scale: 1.0}, goldenFingerprintBFull},
	})
}
