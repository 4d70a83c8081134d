package radio

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gendt/internal/cells"
	"gendt/internal/env"
	"gendt/internal/geo"
)

var origin = geo.Point{Lat: 51.5, Lon: 7.46}

func TestPathlossMonotoneInDistance(t *testing.T) {
	pl := DefaultPathloss()
	prev := -1.0
	for d := 10.0; d < 10000; d *= 1.5 {
		l := pl.LossDB(d, env.LUMediumDenseUrban)
		if l <= prev {
			t.Fatalf("pathloss not increasing at %v m: %v <= %v", d, l, prev)
		}
		prev = l
	}
}

func TestPathlossClutterOrdering(t *testing.T) {
	pl := DefaultPathloss()
	urban := pl.LossDB(2000, env.LUContinuousUrban)
	rural := pl.LossDB(2000, env.LUIsolatedStructures)
	if urban <= rural {
		t.Errorf("urban loss %v should exceed rural %v", urban, rural)
	}
}

func TestPathlossBelowRefDistClamps(t *testing.T) {
	pl := DefaultPathloss()
	if pl.LossDB(1, env.LUSea) != pl.LossDB(pl.RefDist, env.LUSea) {
		t.Error("loss below reference distance should clamp")
	}
}

func TestPathlossUnknownClutterUsesDefault(t *testing.T) {
	pl := DefaultPathloss()
	got := pl.LossDB(1000, 200)
	want := pl.RefLossDB + 10*pl.DefaultExp*math.Log10(1000/pl.RefDist)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("unknown clutter loss = %v, want %v", got, want)
	}
}

func TestShadowFieldCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := NewShadowField(8, 50, rng)
	// Tiny movement: shadowing should barely change.
	v0 := f.Sample(1, origin)
	v1 := f.Sample(1, geo.Offset(origin, 0, 1))
	if math.Abs(v1-v0) > 4 {
		t.Errorf("shadowing jumped %v dB over 1 m", math.Abs(v1-v0))
	}
	// Huge movement: decorrelates; over many trials variance approaches sigma^2.
	sum2 := 0.0
	n := 500
	for i := 0; i < n; i++ {
		v := f.Sample(1, geo.Offset(origin, rng.Float64()*360, 1e6*rng.Float64()+5000))
		sum2 += v * v
	}
	std := math.Sqrt(sum2 / float64(n))
	if std < 5 || std > 11 {
		t.Errorf("long-range shadowing std = %v, want ~8", std)
	}
}

func TestShadowFieldPerCellIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := NewShadowField(8, 50, rng)
	a := f.Sample(1, origin)
	b := f.Sample(2, origin)
	if a == b {
		t.Error("different cells produced identical shadowing")
	}
}

// TestShadowFieldMemoExact replays a step sequence through ShadowField and
// through an unmemoised copy of the Gauss–Markov update on a twin rng: every
// sample must match bit for bit. The sequence has cells that share each
// step's move, a cell that leaves view and returns from its own last point,
// two equal consecutive points (d = 0), and a DecorrM change within a step.
func TestShadowFieldMemoExact(t *testing.T) {
	const sigma = 6.0
	f := NewShadowField(sigma, 50, rand.New(rand.NewSource(11)))
	ref := rand.New(rand.NewSource(11))
	type refState struct {
		value float64
		last  geo.Point
	}
	refs := map[int]*refState{}
	refSample := func(id int, loc geo.Point) float64 {
		st, ok := refs[id]
		if !ok {
			st = &refState{value: sigma * ref.NormFloat64(), last: loc}
			refs[id] = st
			return st.value
		}
		rho := math.Exp(-geo.Distance(st.last, loc) / f.DecorrM)
		st.value = rho*st.value + sigma*math.Sqrt(1-rho*rho)*ref.NormFloat64()
		st.last = loc
		return st.value
	}
	p := func(m float64) geo.Point { return geo.Offset(origin, 40, m) }
	steps := []struct {
		loc   geo.Point
		cells []int
	}{
		{p(0), []int{1, 2, 3, 4}},
		{p(7), []int{1, 2, 3, 4}},
		{p(19), []int{1, 2, 3}}, // 4 leaves view
		{p(31), []int{1, 2, 3}},
		{p(31), []int{1, 2, 3}},    // standing still: d = 0
		{p(44), []int{1, 4, 2, 3}}, // 4 returns from p(7) between two cells that moved from p(31)
		{p(60), []int{4, 1, 2, 3, 5}},
		{p(75), []int{1, 2, 3, 4}},
	}
	for si, st := range steps {
		for ci, id := range st.cells {
			if si == len(steps)-1 && ci == 2 {
				f.DecorrM = 20 // mid-step: the same move must not reuse the old factors
			}
			got, want := f.Sample(id, st.loc), refSample(id, st.loc)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d cell %d: memoised %v, reference %v", si, id, got, want)
			}
		}
	}
}

func TestLoadProcessBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lp := NewLoadProcess(0.5, 0.95, 0.3, rng)
	for i := 0; i < 2000; i++ {
		v := lp.Step(7)
		if v < 0.05 || v > 0.95 {
			t.Fatalf("load %v out of bounds at step %d", v, i)
		}
	}
}

func TestRxPowerDecreasesWithDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	_ = rng
	pl := DefaultPathloss()
	c := &cells.Cell{ID: 1, Site: origin, PMaxDBm: 43, Azimuth: 0, BeamWidth: 120, Height: 25}
	near := geo.Offset(origin, 0, 200)
	far := geo.Offset(origin, 0, 3000)
	pNear := RxPowerDBm(c, geo.Bearing(c.Site, near), 200, pl, env.LUMediumDenseUrban, 0, 0)
	pFar := RxPowerDBm(c, geo.Bearing(c.Site, far), 3000, pl, env.LUMediumDenseUrban, 0, 0)
	if pNear <= pFar {
		t.Errorf("rx power near %v <= far %v", pNear, pFar)
	}
	// Plausible RSRP magnitudes.
	if pNear > -40 || pFar < -140 {
		t.Errorf("implausible RSRP values near=%v far=%v", pNear, pFar)
	}
}

func TestDeriveKPIsRelations(t *testing.T) {
	serving := Link{CellID: 1, RSRPdBm: -85, Load: 0.5}
	others := []Link{{CellID: 2, RSRPdBm: -95, Load: 0.5}, {CellID: 3, RSRPdBm: -100, Load: 0.3}}
	rssi, rsrq, sinr, cqi := DeriveKPIs(serving, others, -120)
	// Paper relation: RSRQ(dB) = 10log10(NRB) + RSRP - RSSI.
	want := 10*math.Log10(NRB) + serving.RSRPdBm - rssi
	if math.Abs(rsrq-clamp(want, RSRQMin, RSRQMax)) > 1e-9 {
		t.Errorf("RSRQ = %v, want %v", rsrq, want)
	}
	if rsrq < RSRQMin || rsrq > RSRQMax {
		t.Errorf("RSRQ %v out of range", rsrq)
	}
	if sinr < SINRMin || sinr > SINRMax {
		t.Errorf("SINR %v out of range", sinr)
	}
	if cqi < 1 || cqi > 15 || cqi != math.Round(cqi) {
		t.Errorf("CQI %v not a valid index", cqi)
	}
}

func TestDeriveKPIsInterferenceLowersSINR(t *testing.T) {
	serving := Link{CellID: 1, RSRPdBm: -85, Load: 0.5}
	quiet := []Link{}
	noisy := []Link{{CellID: 2, RSRPdBm: -87, Load: 0.9}}
	_, _, sQuiet, _ := DeriveKPIs(serving, quiet, -120)
	_, _, sNoisy, _ := DeriveKPIs(serving, noisy, -120)
	if sNoisy >= sQuiet {
		t.Errorf("interference did not lower SINR: %v >= %v", sNoisy, sQuiet)
	}
}

func TestCQISINRRoundTrip(t *testing.T) {
	for cqi := 1.0; cqi <= 15; cqi++ {
		sinr := SINRFromCQI(cqi)
		back := CQIFromSINR(sinr)
		if back != cqi {
			t.Errorf("CQI %v -> SINR %v -> CQI %v", cqi, sinr, back)
		}
	}
}

func TestCQIMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		x, y := math.Mod(math.Abs(a), 40)-10, math.Mod(math.Abs(b), 40)-10
		if x > y {
			x, y = y, x
		}
		return CQIFromSINR(x) <= CQIFromSINR(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeDenormalizeRoundTrip(t *testing.T) {
	for kpi := 0; kpi < NumKPI; kpi++ {
		lo, hi := KPIRange(kpi)
		for _, v := range []float64{lo, (lo + hi) / 2, hi} {
			n := Normalize(kpi, v)
			if n < 0 || n > 1 {
				t.Errorf("Normalize(%d, %v) = %v out of [0,1]", kpi, v, n)
			}
			back := Denormalize(kpi, n)
			if math.Abs(back-v) > 1e-9 {
				t.Errorf("round trip kpi %d: %v -> %v", kpi, v, back)
			}
		}
	}
}

func TestClampKPIRoundsCQI(t *testing.T) {
	if got := ClampKPI(KPICQI, 7.4); got != 7 {
		t.Errorf("ClampKPI CQI 7.4 = %v, want 7", got)
	}
	if got := ClampKPI(KPICQI, 99); got != 15 {
		t.Errorf("ClampKPI CQI 99 = %v, want 15", got)
	}
	if got := ClampKPI(KPIRSRP, -300); got != RSRPMin {
		t.Errorf("ClampKPI RSRP -300 = %v, want %v", got, RSRPMin)
	}
}

func TestServingSelectorAttachAndHysteresis(t *testing.T) {
	s := NewServingSelector(3, 2)
	if s.Serving() != -1 {
		t.Fatal("selector should start detached")
	}
	id, ho := s.Step([]Link{{CellID: 1, RSRPdBm: -80}, {CellID: 2, RSRPdBm: -85}})
	if id != 1 || ho {
		t.Fatalf("initial attach: got %d, ho=%v", id, ho)
	}
	// Neighbour better but within hysteresis: no handover.
	id, ho = s.Step([]Link{{CellID: 1, RSRPdBm: -80}, {CellID: 2, RSRPdBm: -78}})
	if id != 1 || ho {
		t.Fatalf("within hysteresis: got %d, ho=%v", id, ho)
	}
	// Exceeds hysteresis but TTT=2 requires two consecutive samples.
	id, ho = s.Step([]Link{{CellID: 1, RSRPdBm: -80}, {CellID: 2, RSRPdBm: -75}})
	if id != 1 || ho {
		t.Fatalf("first TTT sample should not hand over: got %d", id)
	}
	id, ho = s.Step([]Link{{CellID: 1, RSRPdBm: -80}, {CellID: 2, RSRPdBm: -75}})
	if id != 2 || !ho {
		t.Fatalf("second TTT sample should hand over: got %d, ho=%v", id, ho)
	}
}

func TestServingSelectorStreakResets(t *testing.T) {
	s := NewServingSelector(3, 3)
	s.Step([]Link{{CellID: 1, RSRPdBm: -80}})
	s.Step([]Link{{CellID: 1, RSRPdBm: -80}, {CellID: 2, RSRPdBm: -70}})
	s.Step([]Link{{CellID: 1, RSRPdBm: -80}, {CellID: 2, RSRPdBm: -70}})
	// Condition breaks: streak must reset.
	s.Step([]Link{{CellID: 1, RSRPdBm: -80}, {CellID: 2, RSRPdBm: -80}})
	id, ho := s.Step([]Link{{CellID: 1, RSRPdBm: -80}, {CellID: 2, RSRPdBm: -70}})
	if id != 1 || ho {
		t.Fatalf("streak should have reset; got %d ho=%v", id, ho)
	}
}

func TestServingSelectorRLFReattach(t *testing.T) {
	s := NewServingSelector(3, 2)
	s.Step([]Link{{CellID: 1, RSRPdBm: -80}})
	id, ho := s.Step([]Link{{CellID: 5, RSRPdBm: -90}})
	if id != 5 || !ho {
		t.Fatalf("serving vanished: got %d ho=%v, want reattach to 5", id, ho)
	}
}

func TestServingSelectorEmptyLinks(t *testing.T) {
	s := NewServingSelector(3, 2)
	if id, ho := s.Step(nil); id != -1 || ho {
		t.Fatalf("empty links before attach: got %d, %v", id, ho)
	}
	s.Step([]Link{{CellID: 9, RSRPdBm: -70}})
	if id, ho := s.Step(nil); id != 9 || ho {
		t.Fatalf("empty links after attach: got %d, %v", id, ho)
	}
}

func TestInterHandoverTimes(t *testing.T) {
	ids := []float64{1, 1, 1, 2, 2, 3, 3, 3, 3}
	got := InterHandoverTimes(ids, 1)
	want := []float64{3, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if res := InterHandoverTimes([]float64{1, 1, 1}, 1); len(res) != 0 {
		t.Errorf("no handovers should give empty, got %v", res)
	}
}

func TestStaticShadowRepeatable(t *testing.T) {
	s := NewStaticShadow(6, 80, 42, origin)
	loc := geo.Offset(origin, 45, 300)
	a := s.Sample(7, loc)
	b := s.Sample(7, loc)
	if a != b {
		t.Fatalf("static shadow not repeatable: %v vs %v", a, b)
	}
	s2 := NewStaticShadow(6, 80, 42, origin)
	if c := s2.Sample(7, loc); c != a {
		t.Fatalf("fresh field with same seed differs: %v vs %v", c, a)
	}
}

func TestStaticShadowSmooth(t *testing.T) {
	s := NewStaticShadow(6, 80, 1, origin)
	prev := s.Sample(3, origin)
	for d := 1.0; d <= 40; d++ {
		v := s.Sample(3, geo.Offset(origin, 90, d))
		if math.Abs(v-prev) > 2.0 {
			t.Fatalf("static shadow jumped %v dB over 1 m at d=%v", math.Abs(v-prev), d)
		}
		prev = v
	}
}

func TestStaticShadowVariance(t *testing.T) {
	s := NewStaticShadow(6, 80, 5, origin)
	sum2 := 0.0
	n := 0
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			v := s.Sample(9, geo.Offset(geo.Offset(origin, 0, float64(i)*160), 90, float64(j)*160))
			sum2 += v * v
			n++
		}
	}
	std := math.Sqrt(sum2 / float64(n))
	if std < 3.5 || std > 8.5 {
		t.Errorf("static shadow std = %v, want ~6", std)
	}
}

func TestStaticShadowDiffersAcrossCellsAndSeeds(t *testing.T) {
	s := NewStaticShadow(6, 80, 5, origin)
	loc := geo.Offset(origin, 10, 500)
	if s.Sample(1, loc) == s.Sample(2, loc) {
		t.Error("different cells share static shadowing")
	}
	s2 := NewStaticShadow(6, 80, 6, origin)
	if s.Sample(1, loc) == s2.Sample(1, loc) {
		t.Error("different world seeds share static shadowing")
	}
}

func TestStaticShadowZeroSigma(t *testing.T) {
	s := NewStaticShadow(0, 80, 5, origin)
	if v := s.Sample(1, origin); v != 0 {
		t.Errorf("zero-sigma field returned %v", v)
	}
}
