// Package cells models the mobile network deployment side of the GenDT
// context: cell sites with location, transmit power, and sector orientation,
// plus deployment generators for the paper's measurement scenarios and a
// spatial index answering the "visible cells within d_s" query that drives
// GenDT's dynamic network context (paper §2.3.3, Figure 3).
package cells

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"gendt/internal/geo"
)

// Cell is one sector of a cell site — the unit the paper treats as a
// potential serving cell. Its five context attributes per the paper are
// [lat, lon, p_max, direction, distance_t]; the first four live here and
// distance is computed against the device location at query time.
type Cell struct {
	ID        int       // globally unique identifier (plays the role of PCI/cell id)
	Site      geo.Point // true cell site location (drives propagation)
	PMaxDBm   float64   // maximum transmit power, dBm
	Azimuth   float64   // boresight direction of the sector, degrees clockwise from north
	BeamWidth float64   // sector width in degrees (< 180 per the paper's Figure 3 note)
	Height    float64   // antenna height above ground, metres

	// PeakGainDBi and FrontToBackDB parameterize the sector antenna
	// pattern. The zero values keep the classic LTE macro pattern (15 dBi
	// peak, 28 dB front-to-back limit); narrow-beam high-gain values model
	// 5G-NR beam-like sectors. See SectorGainDB.
	PeakGainDBi   float64
	FrontToBackDB float64

	// Reported is the crowdsourced estimate of the site location as a
	// CellMapper-style database would report it — the position models see
	// as context. The zero value means "same as Site".
	Reported geo.Point
	// ReportedPMaxDBm is the database's estimated transmit power (0 means
	// same as PMaxDBm).
	ReportedPMaxDBm float64
}

// ReportedSite returns the context-visible site estimate.
func (c *Cell) ReportedSite() geo.Point {
	if c.Reported == (geo.Point{}) {
		return c.Site
	}
	return c.Reported
}

// ReportedPower returns the context-visible transmit-power estimate.
func (c *Cell) ReportedPower() float64 {
	if c.ReportedPMaxDBm == 0 {
		return c.PMaxDBm
	}
	return c.ReportedPMaxDBm
}

// String implements fmt.Stringer.
func (c Cell) String() string {
	return fmt.Sprintf("cell %d @ %v az=%.0f p=%.1fdBm", c.ID, c.Site, c.Azimuth, c.PMaxDBm)
}

// Deployment is a set of cells over a region with a spatial index for
// visibility queries.
type Deployment struct {
	Cells []Cell

	proj     *geo.Projection
	xy       [][2]float64     // planar site position per cell, parallel to Cells
	cellSize float64          // grid cell edge, metres
	grid     map[[2]int][]int // grid coords -> indices into Cells
}

// NewDeployment indexes the given cells. indexCellSize is the spatial-hash
// bucket edge in metres; 1000 is a good default for LTE macro deployments.
func NewDeployment(cells []Cell, origin geo.Point, indexCellSize float64) *Deployment {
	if indexCellSize <= 0 {
		indexCellSize = 1000
	}
	d := &Deployment{
		Cells:    cells,
		proj:     geo.NewProjection(origin),
		xy:       make([][2]float64, len(cells)),
		cellSize: indexCellSize,
		grid:     make(map[[2]int][]int),
	}
	for i, c := range cells {
		x, y := d.proj.ToXY(c.Site)
		d.xy[i] = [2]float64{x, y}
		k := d.key(x, y)
		d.grid[k] = append(d.grid[k], i)
	}
	return d
}

func (d *Deployment) key(x, y float64) [2]int {
	return [2]int{int(math.Floor(x / d.cellSize)), int(math.Floor(y / d.cellSize))}
}

// VisibleCell pairs a cell with its current distance from the device.
type VisibleCell struct {
	Cell     *Cell
	Distance float64 // metres from device to cell site
}

// reach2 is the squared pre-reject radius for an exact radius r: a cell
// whose squared planar offset exceeds it is farther than r by a margin
// that dwarfs the few-ulp error of the square and of math.Hypot, so the
// cheap test never rejects a cell math.Hypot would admit. It is never below
// 1 m², which keeps the square clear of underflow.
func reach2(r float64) float64 {
	r *= 1 + 1e-9
	return max(r*r, 1)
}

// walk calls visit for every indexed cell whose squared planar offset from
// the point (x, y) is at most *reach, with the cell's index and that
// offset. *reach starts at reach2(ds) and visit may shrink it as it goes.
// Buckets are opened in square rings outward from the point's own, and a
// bucket lying wholly beyond the current reach is never opened, so a caller
// that shrinks the reach early touches only the buckets around the point.
func (d *Deployment) walk(x, y, ds float64, reach *float64, visit func(idx int, dx, dy float64)) {
	cs := d.cellSize
	// Bucket edges are trusted to within slack, far above their rounding.
	slack := 1e-6 * cs
	gap := func(v float64, k int) float64 {
		lo := float64(k) * cs
		switch {
		case v < lo:
			return max(lo-v-slack, 0)
		case v > lo+cs:
			return max(v-lo-cs-slack, 0)
		}
		return 0
	}
	k0 := d.key(x, y)
	rings := int(math.Ceil(ds/cs)) + 1
	for ring := 0; ring <= rings; ring++ {
		// Every bucket of this ring and beyond is at least this far away.
		if near := float64(ring-1)*cs - slack; near > 0 && near*near > *reach {
			return
		}
		for bx := k0[0] - ring; bx <= k0[0]+ring; bx++ {
			step := 2 * ring // interior columns: the ring's top and bottom buckets
			if bx == k0[0]-ring || bx == k0[0]+ring {
				step = 1
			}
			gx := gap(x, bx)
			for by := k0[1] - ring; by <= k0[1]+ring; by += step {
				if gy := gap(y, by); gx*gx+gy*gy > *reach {
					continue
				}
				for _, idx := range d.grid[[2]int{bx, by}] {
					dx, dy := d.xy[idx][0]-x, d.xy[idx][1]-y
					if dx*dx+dy*dy <= *reach {
						visit(idx, dx, dy)
					}
				}
			}
		}
	}
}

// compareVisible orders visible cells by (distance, cell ID), a total
// order over distinct cells, so a result never depends on the order the
// walk found its cells in. Distances are never NaN: a NaN fails dist <= ds.
func compareVisible(a, b VisibleCell) int {
	switch {
	case a.Distance < b.Distance:
		return -1
	case a.Distance > b.Distance:
		return 1
	}
	return cmp.Compare(a.Cell.ID, b.Cell.ID)
}

// Visible returns all cells within radius ds metres of loc, sorted by
// ascending distance. This is the paper's set C_cell of potential serving
// cells around a device location.
func (d *Deployment) Visible(loc geo.Point, ds float64) []VisibleCell {
	x, y := d.proj.ToXY(loc)
	var out []VisibleCell
	reach := reach2(ds)
	d.walk(x, y, ds, &reach, func(idx int, dx, dy float64) {
		if dist := math.Hypot(dx, dy); dist <= ds {
			out = append(out, VisibleCell{Cell: &d.Cells[idx], Distance: dist})
		}
	})
	slices.SortFunc(out, compareVisible)
	return out
}

// Nearest returns the k nearest cells within ds metres of loc: exactly
// Visible(loc, ds)[:k] (all of it when fewer are visible), without
// building and sorting the whole visible set. A bounded buffer keeps the
// best k in (distance, ID) order by insertion. Once it is full the walk's
// reach shrinks to the k-th distance, so farther cells skip math.Hypot and
// farther buckets are never opened.
func (d *Deployment) Nearest(loc geo.Point, ds float64, k int) []VisibleCell {
	if k <= 0 {
		return nil
	}
	x, y := d.proj.ToXY(loc)
	out := make([]VisibleCell, 0, min(k, len(d.Cells)))
	reach := reach2(ds)
	d.walk(x, y, ds, &reach, func(idx int, dx, dy float64) {
		dist := math.Hypot(dx, dy)
		if !(dist <= ds) {
			return
		}
		v := VisibleCell{Cell: &d.Cells[idx], Distance: dist}
		if len(out) == k {
			if compareVisible(v, out[k-1]) >= 0 {
				return
			}
			out = out[:k-1]
		}
		i := len(out)
		out = append(out, v)
		for ; i > 0 && compareVisible(v, out[i-1]) < 0; i-- {
			out[i] = out[i-1]
		}
		out[i] = v
		if len(out) == k {
			reach = reach2(out[k-1].Distance)
		}
	})
	return out
}

// ByID returns the cell with the given id, or nil.
func (d *Deployment) ByID(id int) *Cell {
	for i := range d.Cells {
		if d.Cells[i].ID == id {
			return &d.Cells[i]
		}
	}
	return nil
}

// DensityPerKm2 computes the cell density (cells per square kilometre)
// within radius metres of each trajectory sample, averaged along the
// trajectory — the quantity plotted in the paper's Figure 4.
func (d *Deployment) DensityPerKm2(tr geo.Trajectory, radius float64) float64 {
	if len(tr) == 0 {
		return 0
	}
	area := math.Pi * radius * radius / 1e6 // km^2
	total := 0.0
	for _, s := range tr {
		total += float64(len(d.Visible(s.Point, radius)))
	}
	return total / float64(len(tr)) / area
}

// DeploymentSpec parameterizes a synthetic deployment generator.
type DeploymentSpec struct {
	Origin      geo.Point
	ExtentKm    float64 // square region edge length, km
	SitesPerKm2 float64 // density of cell *sites* (each site hosts Sectors cells)
	Sectors     int     // sectors per site (typically 3)
	PMaxDBm     float64 // nominal sector max transmit power
	PMaxJitter  float64 // per-sector power jitter, dB
	Height      float64 // antenna height, m
	Jitter      float64 // site placement jitter as a fraction of grid pitch
	FirstID     int     // id of the first generated cell
	// ReportErrM is the standard deviation (metres) of the crowdsourced
	// position estimate each generated cell reports as context, and
	// ReportErrDB the standard deviation of its reported-power error.
	// Zero means the database is exact.
	ReportErrM  float64
	ReportErrDB float64

	// BeamWidth, PeakGainDBi, and FrontToBackDB override the sector
	// antenna pattern of every generated cell; zero keeps the defaults
	// (120 degrees, 15 dBi, 28 dB).
	BeamWidth     float64
	PeakGainDBi   float64
	FrontToBackDB float64
}

// Generate synthesizes a sectorized deployment: sites on a jittered grid,
// each with Sectors cells at evenly spaced azimuths. Densities follow the
// paper's Figure 4 observation that inner-city areas are much denser than
// highways.
func Generate(spec DeploymentSpec, rng *rand.Rand) []Cell {
	if spec.Sectors <= 0 {
		spec.Sectors = 3
	}
	if spec.PMaxDBm == 0 {
		spec.PMaxDBm = 43 // typical LTE macro sector
	}
	if spec.Height == 0 {
		spec.Height = 25
	}
	if spec.BeamWidth == 0 {
		spec.BeamWidth = 120
	}
	areaKm2 := spec.ExtentKm * spec.ExtentKm
	nSites := int(math.Round(spec.SitesPerKm2 * areaKm2))
	if nSites < 1 {
		nSites = 1
	}
	// Approximately square grid of sites.
	cols := int(math.Ceil(math.Sqrt(float64(nSites))))
	pitch := spec.ExtentKm * 1000 / float64(cols)
	proj := geo.NewProjection(spec.Origin)
	half := spec.ExtentKm * 500
	var out []Cell
	id := spec.FirstID
	placed := 0
	for gy := 0; gy < cols && placed < nSites; gy++ {
		for gx := 0; gx < cols && placed < nSites; gx++ {
			x := -half + (float64(gx)+0.5)*pitch + spec.Jitter*pitch*rng.NormFloat64()
			y := -half + (float64(gy)+0.5)*pitch + spec.Jitter*pitch*rng.NormFloat64()
			site := proj.FromXY(x, y)
			base := rng.Float64() * 360
			reported := site
			if spec.ReportErrM > 0 {
				reported = geo.Offset(site, rng.Float64()*360, math.Abs(spec.ReportErrM*rng.NormFloat64()))
			}
			for s := 0; s < spec.Sectors; s++ {
				pmax := spec.PMaxDBm + spec.PMaxJitter*rng.NormFloat64()
				c := Cell{
					ID:            id,
					Site:          site,
					PMaxDBm:       pmax,
					Azimuth:       math.Mod(base+float64(s)*360/float64(spec.Sectors), 360),
					BeamWidth:     spec.BeamWidth,
					Height:        spec.Height,
					Reported:      reported,
					PeakGainDBi:   spec.PeakGainDBi,
					FrontToBackDB: spec.FrontToBackDB,
				}
				if spec.ReportErrDB > 0 {
					c.ReportedPMaxDBm = pmax + spec.ReportErrDB*rng.NormFloat64()
				}
				out = append(out, c)
				id++
			}
			placed++
		}
	}
	return out
}

// GenerateCorridor places sites along a line (a highway corridor) with the
// given spacing in metres, starting at start and heading along bearing for
// lengthKm kilometres. Sites alternate sides of the road.
func GenerateCorridor(start geo.Point, bearing float64, lengthKm, spacingM float64, pMaxDBm float64, firstID int, rng *rand.Rand) []Cell {
	var out []Cell
	id := firstID
	n := int(lengthKm * 1000 / spacingM)
	side := 1.0
	for i := 0; i <= n; i++ {
		along := geo.Offset(start, bearing, float64(i)*spacingM)
		lateral := 300 + 200*rng.Float64()
		site := geo.Offset(along, bearing+90*side, lateral)
		// Two sectors pointing up and down the corridor.
		for s := 0; s < 2; s++ {
			az := bearing
			if s == 1 {
				az = bearing + 180
			}
			out = append(out, Cell{
				ID:        id,
				Site:      site,
				PMaxDBm:   pMaxDBm + rng.NormFloat64(),
				Azimuth:   math.Mod(az+360, 360),
				BeamWidth: 120,
				Height:    30,
			})
			id++
		}
		side = -side
	}
	return out
}

// SectorGainDB returns the antenna gain in dB of cell c toward a device at
// loc, using a standard 3GPP-style parabolic sector pattern with 20 dB
// front-to-back limit. Devices inside the sector's beam see near-peak gain;
// devices behind it see heavily attenuated signal, which is what makes
// serving cells churn along a trajectory (paper Figure 2).
func SectorGainDB(c *Cell, loc geo.Point) float64 {
	return SectorGainFromBearing(c, geo.Bearing(c.Site, loc))
}

// SectorGainFromBearing is SectorGainDB given brg = geo.Bearing(c.Site,
// loc), the bearing from the cell's site to the device. The sectors of a
// site share Site, so a caller scoring all of them toward one point
// computes the bearing once and gets SectorGainDB's result bit for bit.
func SectorGainFromBearing(c *Cell, brg float64) float64 {
	diff := math.Mod(brg-c.Azimuth+540, 360) - 180 // [-180, 180)
	theta3db := c.BeamWidth / 2
	att := 12 * (diff / theta3db) * (diff / theta3db)
	maxAtt := c.FrontToBackDB
	if maxAtt == 0 {
		maxAtt = 28 // 3GPP-style front-to-back limit A_m
	}
	if att > maxAtt {
		att = maxAtt
	}
	peakGain := c.PeakGainDBi
	if peakGain == 0 {
		peakGain = 15 // dBi, classic LTE macro sector
	}
	return peakGain - att
}
