package cells

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gendt/internal/geo"
)

var origin = geo.Point{Lat: 51.5, Lon: 7.46} // Dortmund-ish, matching Dataset B

func testDeployment(t *testing.T, sitesPerKm2 float64) *Deployment {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	cs := Generate(DeploymentSpec{
		Origin: origin, ExtentKm: 10, SitesPerKm2: sitesPerKm2,
		Sectors: 3, Jitter: 0.2,
	}, rng)
	return NewDeployment(cs, origin, 1000)
}

func TestGenerateCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cs := Generate(DeploymentSpec{Origin: origin, ExtentKm: 5, SitesPerKm2: 2, Sectors: 3}, rng)
	wantSites := 50 // 2 sites/km2 * 25 km2
	if got := len(cs) / 3; got != wantSites {
		t.Errorf("generated %d sites, want %d", got, wantSites)
	}
	// IDs unique and sequential from 0.
	seen := map[int]bool{}
	for _, c := range cs {
		if seen[c.ID] {
			t.Fatalf("duplicate cell ID %d", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestGenerateDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cs := Generate(DeploymentSpec{Origin: origin, ExtentKm: 2, SitesPerKm2: 1}, rng)
	for _, c := range cs {
		if c.PMaxDBm < 30 || c.PMaxDBm > 50 {
			t.Errorf("default PMax = %v outside plausible macro range", c.PMaxDBm)
		}
		if c.Height <= 0 {
			t.Errorf("default height = %v", c.Height)
		}
	}
}

func TestVisibleSortedAndWithinRadius(t *testing.T) {
	d := testDeployment(t, 4)
	vis := d.Visible(origin, 2000)
	if len(vis) == 0 {
		t.Fatal("no visible cells at deployment origin")
	}
	for i, v := range vis {
		if v.Distance > 2000 {
			t.Errorf("cell %d at %v m exceeds radius", v.Cell.ID, v.Distance)
		}
		if i > 0 && vis[i-1].Distance > v.Distance {
			t.Errorf("visible cells not sorted at %d", i)
		}
	}
}

func TestVisibleMatchesBruteForce(t *testing.T) {
	d := testDeployment(t, 4)
	pr := geo.NewProjection(origin)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		loc := pr.FromXY((rng.Float64()-0.5)*8000, (rng.Float64()-0.5)*8000)
		ds := 500 + rng.Float64()*3000
		want := 0
		for _, c := range d.Cells {
			if pr.PlanarDistance(loc, c.Site) <= ds {
				want++
			}
		}
		if got := len(d.Visible(loc, ds)); got != want {
			t.Errorf("Visible(%v, %v) = %d cells, brute force = %d", loc, ds, got, want)
		}
	}
}

// visibleReference is Visible as it was before the index kept planar site
// positions and before slices.SortFunc: every cell projected per call, no
// grid, sort.Slice with the (distance, cell ID) order.
func visibleReference(d *Deployment, loc geo.Point, ds float64) []VisibleCell {
	x, y := d.proj.ToXY(loc)
	var out []VisibleCell
	for i := range d.Cells {
		cx, cy := d.proj.ToXY(d.Cells[i].Site)
		if dist := math.Hypot(cx-x, cy-y); dist <= ds {
			out = append(out, VisibleCell{Cell: &d.Cells[i], Distance: dist})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].Cell.ID < out[j].Cell.ID
	})
	return out
}

// TestVisibleMatchesReference: same cells, same distance bits, same order as
// the reference at random points. Three sectors share every site, so every
// result is full of equal distances that only the cell ID orders.
func TestVisibleMatchesReference(t *testing.T) {
	d := testDeployment(t, 4)
	rng := rand.New(rand.NewSource(11))
	ties := 0
	for trial := 0; trial < 200; trial++ {
		loc := d.proj.FromXY((rng.Float64()-0.5)*9000, (rng.Float64()-0.5)*9000)
		if trial%10 == 0 {
			loc = d.Cells[rng.Intn(len(d.Cells))].Site // distance 0, three ways
		}
		ds := 300 + rng.Float64()*3500
		got, want := d.Visible(loc, ds), visibleReference(d, loc, ds)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d cells, reference has %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Cell != want[i].Cell || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
				t.Fatalf("trial %d position %d: cell %d at %v, reference cell %d at %v",
					trial, i, got[i].Cell.ID, got[i].Distance, want[i].Cell.ID, want[i].Distance)
			}
			if i > 0 && want[i].Distance == want[i-1].Distance {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no equal distances seen: the tie-break was not exercised")
	}
}

// TestNearestMatchesVisible: Nearest(loc, ds, k) is Visible(loc, ds)[:k]
// element by element — same cells, same distance bits — at random points,
// on co-sited sectors (three equal distances at 0 m and beyond), and at
// radii set exactly to some cell's distance, so the ds boundary and the
// k-th-distance pre-reject are both hit on equal values. Visible itself is
// held to the brute-force reference at those boundary radii. The second
// deployment shuffles cell IDs, so a co-sited sector with the lower ID is
// often found after the one it must displace.
func TestNearestMatchesVisible(t *testing.T) {
	d := testDeployment(t, 4)
	shuffled := append([]Cell(nil), d.Cells...)
	rng := rand.New(rand.NewSource(13))
	for i, id := range rng.Perm(len(shuffled)) {
		shuffled[i].ID = id
	}
	for _, d := range []*Deployment{d, NewDeployment(shuffled, origin, 1000)} {
		nearestMatchesVisible(t, d, rng)
	}
}

func nearestMatchesVisible(t *testing.T, d *Deployment, rng *rand.Rand) {
	t.Helper()
	ties, boundary := 0, 0
	for trial := 0; trial < 300; trial++ {
		loc := d.proj.FromXY((rng.Float64()-0.5)*9000, (rng.Float64()-0.5)*9000)
		if trial%10 == 0 {
			loc = d.Cells[rng.Intn(len(d.Cells))].Site
		}
		ds := 300 + rng.Float64()*3500
		all := d.Visible(loc, ds)
		if trial%3 == 0 && len(all) > 0 {
			// Shrink ds onto a visible cell's exact distance: that cell (and
			// its co-sited sectors) sit on the boundary and must stay in.
			ds = all[rng.Intn(len(all))].Distance
			all = d.Visible(loc, ds)
			if ref := visibleReference(d, loc, ds); len(all) != len(ref) || (len(ref) > 0 && all[len(all)-1].Cell != ref[len(ref)-1].Cell) {
				t.Fatalf("trial %d: Visible at a boundary radius has %d cells, reference %d", trial, len(all), len(ref))
			}
			boundary++
		}
		for _, k := range []int{1, 2, 6, 16, len(all) + 5} {
			got := d.Nearest(loc, ds, k)
			want := all[:min(k, len(all))]
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d cells, Visible prefix has %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Cell != want[i].Cell || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
					t.Fatalf("trial %d k=%d position %d: cell %d at %v, Visible has cell %d at %v",
						trial, k, i, got[i].Cell.ID, got[i].Distance, want[i].Cell.ID, want[i].Distance)
				}
				if i > 0 && want[i].Distance == want[i-1].Distance {
					ties++
				}
			}
		}
	}
	if ties == 0 || boundary == 0 {
		t.Fatalf("ties %d, boundary radii %d: an edge case was not exercised", ties, boundary)
	}
	if got := d.Nearest(origin, 2000, 0); len(got) != 0 {
		t.Errorf("Nearest with k=0 returned %d cells", len(got))
	}
	far := geo.Offset(origin, 0, 100000)
	if got := d.Nearest(far, 2000, 6); len(got) != 0 {
		t.Errorf("Nearest 100 km away returned %d cells", len(got))
	}
}

func TestDensityScalesWithSpec(t *testing.T) {
	dense := testDeployment(t, 8)
	sparse := testDeployment(t, 1)
	tr := geo.Trajectory{{Point: origin, T: 0}}
	dd := dense.DensityPerKm2(tr, 2000)
	sd := sparse.DensityPerKm2(tr, 2000)
	if dd <= sd {
		t.Errorf("dense deployment density %v not greater than sparse %v", dd, sd)
	}
}

func TestByID(t *testing.T) {
	d := testDeployment(t, 2)
	c := d.ByID(d.Cells[3].ID)
	if c == nil || c.ID != d.Cells[3].ID {
		t.Fatalf("ByID returned %v", c)
	}
	if d.ByID(-999) != nil {
		t.Error("ByID(-999) should be nil")
	}
}

func TestSectorGainPeakAtBoresight(t *testing.T) {
	c := &Cell{Site: origin, Azimuth: 0, BeamWidth: 120}
	ahead := geo.Offset(origin, 0, 1000)
	behind := geo.Offset(origin, 180, 1000)
	edge := geo.Offset(origin, 60, 1000)
	ga, gb, ge := SectorGainDB(c, ahead), SectorGainDB(c, behind), SectorGainDB(c, edge)
	if ga <= gb {
		t.Errorf("boresight gain %v not above back-lobe gain %v", ga, gb)
	}
	if math.Abs(ga-ge-12) > 1.0 {
		t.Errorf("3dB-ish edge: boresight %v, edge %v, want ~12 dB apart", ga, ge)
	}
	if ga-gb > 28.5 {
		t.Errorf("front-to-back ratio %v exceeds 28 dB cap", ga-gb)
	}
}

func TestSectorGainBounded(t *testing.T) {
	c := &Cell{Site: origin, Azimuth: 123, BeamWidth: 120}
	f := func(brg float64) bool {
		if math.IsNaN(brg) || math.IsInf(brg, 0) {
			return true
		}
		loc := geo.Offset(origin, math.Mod(math.Abs(brg), 360), 500)
		g := SectorGainDB(c, loc)
		return g <= 15 && g >= -13.001 // peak 15 dBi, floor 15-28 dB
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGenerateCorridor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cs := GenerateCorridor(origin, 90, 20, 2000, 46, 100, rng)
	if len(cs) < 20 {
		t.Fatalf("corridor produced only %d cells", len(cs))
	}
	// All sites should be within ~1km laterally of the corridor line and IDs start at 100.
	if cs[0].ID != 100 {
		t.Errorf("first corridor id = %d, want 100", cs[0].ID)
	}
	end := geo.Offset(origin, 90, 20000)
	for _, c := range cs {
		if geo.Distance(c.Site, origin) > 22000 && geo.Distance(c.Site, end) > 22000 {
			t.Errorf("corridor cell %d too far from corridor", c.ID)
		}
	}
}

func TestVisibleEmptyFarAway(t *testing.T) {
	d := testDeployment(t, 2)
	far := geo.Offset(origin, 0, 100000)
	if vis := d.Visible(far, 2000); len(vis) != 0 {
		t.Errorf("expected no visible cells 100 km away, got %d", len(vis))
	}
}

func TestReportedDefaultsToTrue(t *testing.T) {
	c := Cell{ID: 1, Site: origin, PMaxDBm: 43}
	if c.ReportedSite() != origin {
		t.Error("zero Reported should fall back to Site")
	}
	if c.ReportedPower() != 43 {
		t.Error("zero ReportedPMaxDBm should fall back to PMaxDBm")
	}
}

func TestReportErrProducesOffsetEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cs := Generate(DeploymentSpec{
		Origin: origin, ExtentKm: 4, SitesPerKm2: 2, Sectors: 3,
		ReportErrM: 150, ReportErrDB: 3,
	}, rng)
	moved, powerDiff := 0, 0
	for _, c := range cs {
		if d := geo.Distance(c.Site, c.ReportedSite()); d > 1 {
			moved++
			if d > 1000 {
				t.Errorf("reported position %v m off, implausibly far", d)
			}
		}
		if c.ReportedPower() != c.PMaxDBm {
			powerDiff++
		}
	}
	if moved == 0 {
		t.Error("ReportErrM had no effect")
	}
	if powerDiff == 0 {
		t.Error("ReportErrDB had no effect")
	}
}
