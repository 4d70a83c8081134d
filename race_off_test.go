//go:build !race

package gendt

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
