package dataset

import (
	"errors"
	"flag"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gendt/internal/scenario"
)

// TestWorldFlags covers the world selection of every binary that builds a
// world (gendt-train, -gen, -validate, -dataset, -serve, -bench, -rollout,
// and the name half for gendt-experiments): they all register exactly this
// block.
func TestWorldFlags(t *testing.T) {
	const tunnel = "../../scenarios/tunnel-corridor.toml" // [scenario] name = "Tunnel"
	broken := filepath.Join(t.TempDir(), "broken.toml")
	if err := os.WriteFile(broken, []byte("[scenario]\nname = \"X\"\nno_such_key = 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		args     []string
		wantName string
		parseErr string // substring of the fs.Parse error
		nameErr  error  // sentinel the Name error wraps
	}{
		{name: "default", wantName: "A"},
		{name: "dataset", args: []string{"-dataset", "nr5g"}, wantName: "nr5g"},
		{name: "file alone names the world", args: []string{"-scenario-file", tunnel}, wantName: "Tunnel"},
		{name: "explicit dataset wins over the file", args: []string{"-scenario-file", tunnel, "-dataset", "B"}, wantName: "B"},
		{name: "explicit dataset equal to the default still wins", args: []string{"-dataset", "A", "-scenario-file", tunnel}, wantName: "A"},
		{name: "unreadable file", args: []string{"-scenario-file", filepath.Join(t.TempDir(), "absent.toml")}, nameErr: fs.ErrNotExist},
		{name: "invalid file", args: []string{"-scenario-file", broken}, nameErr: scenario.ErrUnknownKey},
		{name: "scale 0", args: []string{"-scale", "0"}, parseErr: "-scale"},
		{name: "scale -1", args: []string{"-scale", "-1"}, parseErr: "-scale"},
		{name: "scale NaN", args: []string{"-scale", "NaN"}, parseErr: "-scale"},
		{name: "scale +Inf", args: []string{"-scale", "+Inf"}, parseErr: "-scale"},
		{name: "scale junk", args: []string{"-scale", "big"}, parseErr: "-scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := flag.NewFlagSet("test", flag.ContinueOnError)
			set.SetOutput(io.Discard)
			w := AddWorldFlags(set, 0.05, "")
			err := set.Parse(tc.args)
			if tc.parseErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.parseErr) {
					t.Fatalf("Parse(%v) = %v, want an error naming %s", tc.args, err, tc.parseErr)
				}
				if w.Scale != 0.05 {
					t.Fatalf("rejected -scale still stored %g", w.Scale)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(%v): %v", tc.args, err)
			}
			name, err := w.Name()
			if tc.nameErr != nil {
				if !errors.Is(err, tc.nameErr) {
					t.Fatalf("Name() error = %v, want one wrapping %v", err, tc.nameErr)
				}
				if _, err := w.Build(); !errors.Is(err, tc.nameErr) {
					t.Fatalf("Build() error = %v, want one wrapping %v", err, tc.nameErr)
				}
				return
			}
			if err != nil || name != tc.wantName {
				t.Fatalf("Name() = %q, %v; want %q", name, err, tc.wantName)
			}
		})
	}
}

// Build hands -seed and -scale to the registry: the CI smokes' flags land
// on the world pinned in golden_test.go, and an unknown name lists what is
// registered.
func TestWorldFlagsBuild(t *testing.T) {
	set := flag.NewFlagSet("test", flag.ContinueOnError)
	w := AddWorldFlags(set, 0.05, "")
	if err := set.Parse([]string{"-seed", "7", "-scale", "0.02"}); err != nil {
		t.Fatal(err)
	}
	d, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Fingerprint(); got != goldenFingerprintASmoke {
		t.Errorf("-seed 7 -scale 0.02 built %#x, want the pinned %#x", got, uint64(goldenFingerprintASmoke))
	}

	set = flag.NewFlagSet("test", flag.ContinueOnError)
	w = AddWorldFlags(set, 0.05, "")
	if err := set.Parse([]string{"-dataset", "nowhere"}); err != nil {
		t.Fatal(err)
	}
	_, err = w.Build()
	if err == nil {
		t.Fatal("Build() of an unknown name succeeded")
	}
	for _, n := range scenario.Names() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-name error %q does not list registered scenario %q", err, n)
		}
	}
}
