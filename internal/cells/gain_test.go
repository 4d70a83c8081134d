package cells_test

import (
	"math"
	"math/rand"
	"testing"

	"gendt/internal/cells"
	"gendt/internal/dataset"
	"gendt/internal/geo"
)

// TestSectorGainFromBearing checks the sharing a drive test relies on: for
// every cell of the benchmark world, the gain from a bearing computed once
// for the site — from its first sector's Site — equals SectorGainDB from
// the cell itself, bit for bit, at random points around the world.
func TestSectorGainFromBearing(t *testing.T) {
	d, err := dataset.NewByName("A", dataset.Spec{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cs := d.World.Deployment.Cells
	rng := rand.New(rand.NewSource(5))
	center := d.Runs[0].Traj.Centroid()
	for range 50 {
		loc := geo.Offset(center, rng.Float64()*360, rng.Float64()*8000)
		var site geo.Point
		var brg float64
		sites := 0
		for i := range cs {
			c := &cs[i]
			if i == 0 || c.Site != site {
				site, brg = c.Site, geo.Bearing(c.Site, loc)
				sites++
			}
			got, want := cells.SectorGainFromBearing(c, brg), cells.SectorGainDB(c, loc)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cell %d at %v: gain from site bearing %v, SectorGainDB %v", c.ID, loc, got, want)
			}
		}
		if sites == len(cs) {
			t.Fatalf("no two cells share a site: the per-site bearing is never reused")
		}
	}
}
