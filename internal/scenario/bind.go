package scenario

import (
	"fmt"
	"os"

	"gendt/internal/env"
	"gendt/internal/geo"
)

// Scenario is a bound, schema-validated scenario description — the
// compiler's input. Optional knobs carry presence flags where "absent"
// and "zero" must compile differently (an absent nudge offset must not
// emit a geo.Offset call at all, or the floats drift from the pinned
// Dataset A/B fingerprints).
type Scenario struct {
	// Name is the registry key (matched case-insensitively by Lookup) and
	// becomes the built Dataset's Name.
	Name  string
	Title string // free-form description, unused by the compiler

	Origin geo.Point
	// SeedOffset seeds the deployment generator rng at Seed+SeedOffset;
	// WorldSeedOffset sets World.WorldSeed = Seed+WorldSeedOffset.
	SeedOffset      int64
	WorldSeedOffset int64
	// IndexCellM is the deployment spatial-index bucket edge.
	IndexCellM float64

	World    WorldSpec
	Pathloss *PathlossSpec // nil = radio.DefaultPathloss
	Env      EnvSpec
	Centers  []CenterSpec
	Layouts  []LayoutSpec
	Measures []MeasureSpec
}

// WorldSpec overrides sim.DefaultWorld fields; only fields whose Set flag
// is true are applied, so a minimal config inherits every default.
type WorldSpec struct {
	VisibleRangeM       optFloat
	EnvRadiusM          optFloat
	NoiseFloorDBm       optFloat
	StaticShadowSigmaDB optFloat
	StaticShadowCorrM   optFloat
	ShadowSigmaDB       optFloat
	ShadowDecorrM       optFloat
	FadingSigmaDB       optFloat
	HysteresisDB        optFloat
	TimeToTrigger       optInt
	L3Alpha             optFloat
	LoadMean            optFloat
	LoadAlpha           optFloat
	LoadStd             optFloat
}

type optFloat struct {
	Set bool
	V   float64
}

type optInt struct {
	Set bool
	V   int
}

// PathlossSpec overrides the propagation model: reference loss/distance,
// the default exponent, and per-land-use exponents keyed by the attribute
// names of env.AttributeNames (exp_continuous_urban = 3.9, ...).
type PathlossSpec struct {
	RefLossDB  float64 // 0 = keep default
	RefDistM   float64
	DefaultExp float64
	// Exponents maps land-use class -> exponent for explicitly configured
	// classes only.
	Exponents map[uint8]float64
}

// EnvSpec parameterizes the procedural environment map.
type EnvSpec struct {
	ExtentKm       float64
	CellM          float64 // 0 = env default (250 m)
	CoreKm         float64 // single-core radius (ignored with CentersAsCores)
	PoIPerKm2      float64
	SeedOffset     int64
	CentersAsCores bool    // use every [[center]] as a dense core
	CoreRadiusKm   float64 // per-center core radius with CentersAsCores
}

// CenterSpec is one named anchor point, given as an offset from the
// scenario origin. Layouts and measures reference centers by index.
type CenterSpec struct {
	Bearing   float64
	DistanceM float64
}

// LayoutSpec is one deployment layout: a jittered sectorized grid or a
// highway-style corridor. Layouts draw from one shared rng in declaration
// order and receive consecutive cell IDs.
type LayoutSpec struct {
	Kind   string // "grid" or "corridor"
	Center int    // anchor: -1 = origin, else center index

	// Grid fields (cells.DeploymentSpec).
	ExtentKm      float64
	SitesPerKm2   float64
	Sectors       int
	Jitter        float64
	PMaxDBm       float64
	PMaxJitterDB  float64
	HeightM       float64
	BeamWidthDeg  float64
	PeakGainDBi   float64
	FrontToBackDB float64
	ReportErrM    float64
	ReportErrDB   float64

	// Corridor fields.
	HasAnchorOffset bool // emit geo.Offset(anchor, AnchorBearing, AnchorDistanceM)
	AnchorBearing   float64
	AnchorDistanceM float64
	Bearing         float64 // explicit corridor bearing...
	FromCenter      int     // ...or computed: Bearing(centers[From], centers[To])
	ToCenter        int
	LengthKm        float64
	SpacingM        float64
}

// MeasureSpec is one measurement scenario: a mobility profile, a sampling
// granularity, and a placement rule that lays Runs routes out so the
// first half (train split) and second half (test split) stay
// geographically disjoint.
type MeasureSpec struct {
	Name     string
	Profile  string // walk|bus|tram|citydrive|highway|custom|mixed
	Profile2 string // second profile for "mixed" (odd run indices)
	// Custom profile parameters (Profile == "custom", or the custom side
	// of "mixed" via profile = "custom").
	SpeedMean, SpeedStd, SpeedMin, SpeedMax, SpeedAlpha float64

	DurationS     float64 // total scenario duration at Scale=1, split over Runs
	IntervalS     float64 // sampling granularity
	TurnEveryS    float64
	TurnJitterDeg float64
	GridSnap      bool
	Runs          int

	RouteSeedBase int64 // route rng = Seed + RouteSeedBase + runIndex
	DriveSeedBase int64 // measurement rng = Seed + DriveSeedBase + runIndex

	Placement string // "arc" or "line"
	Center    int    // -1 = origin

	// Arc placement: run ri starts at
	//   Offset(anchor, side, RadiusBaseM + RadiusStepM*(ri%RadiusMod))
	// with side = TrainBearing + BearingStep*ri (train half) or
	// TestBearing + BearingStep*(ri-Runs/2) (test half), then an optional
	// nudge Offset. The route heading is
	//   (RouteBearingBase + ri*RouteBearingStep) mod 360.
	TrainBearing     float64
	TestBearing      float64
	BearingStep      float64
	RadiusBaseM      float64
	RadiusStepM      float64
	RadiusMod        int
	HasNudge         bool
	NudgeBearing     float64
	NudgeDistanceM   float64
	RouteBearingBase int
	RouteBearingStep int

	// Line placement: runs start along a bearing (explicit LineBearing or
	// centers FromCenter->ToCenter) from an anchor at
	//   TrainOffsetM/TestOffsetM + OffsetStepM*(ri%OffsetMod)
	// and head down the line.
	HasLineAnchorOffset  bool
	LineAnchorBearing    float64
	LineAnchorDistanceM  float64
	LineBearing          float64
	FromCenter, ToCenter int
	TrainOffsetM         float64
	TestOffsetM          float64
	OffsetStepM          float64
	OffsetMod            int
}

// Load parses and binds a scenario config text.
func Load(text string) (*Scenario, error) {
	doc, err := Parse(text)
	if err != nil {
		return nil, err
	}
	return Bind(doc)
}

// LoadFile loads a scenario config from disk.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sc, err := Load(string(data))
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", path, err)
	}
	return sc, nil
}

// landUseKey maps "exp_<attribute>" config keys to land-use classes.
var landUseKey = func() map[string]uint8 {
	m := make(map[string]uint8, env.NumLandUse)
	for class := 0; class < env.NumLandUse; class++ {
		m["exp_"+env.AttributeNames[class]] = uint8(class)
	}
	return m
}()

// Bind validates a parsed Doc against the scenario schema.
func Bind(doc *Doc) (*Scenario, error) {
	sc := &Scenario{}
	var haveScenario, haveEnv bool
	for i := range doc.Sections {
		sec := &doc.Sections[i]
		var err error
		switch sec.Name {
		case "scenario":
			haveScenario = true
			err = bindScenario(sec, sc)
		case "world":
			err = bindWorld(sec, &sc.World)
		case "pathloss":
			err = bindPathloss(sec, sc)
		case "env":
			haveEnv = true
			err = bindEnv(sec, &sc.Env)
		case "center":
			err = bindCenter(sec, sc)
		case "layout":
			err = bindLayout(sec, sc)
		case "measure":
			err = bindMeasure(sec, sc)
		}
		if err != nil {
			return nil, err
		}
	}
	if !haveScenario {
		return nil, fmt.Errorf("%w: [scenario] section", ErrMissing)
	}
	if !haveEnv {
		return nil, fmt.Errorf("%w: [env] section", ErrMissing)
	}
	if len(sc.Layouts) == 0 {
		return nil, fmt.Errorf("%w: at least one [[layout]]", ErrMissing)
	}
	if len(sc.Measures) == 0 {
		return nil, fmt.Errorf("%w: at least one [[measure]]", ErrMissing)
	}
	if err := crossValidate(sc); err != nil {
		return nil, err
	}
	return sc, nil
}

func bindScenario(sec *Section, sc *Scenario) error {
	b := newBinder(sec)
	sc.Name = b.str("name", "")
	sc.Title = b.str("title", "")
	sc.Origin = geo.Point{Lat: b.num("origin_lat", 0), Lon: b.num("origin_lon", 0)}
	sc.SeedOffset = int64(b.integer("seed_offset", 0))
	sc.WorldSeedOffset = int64(b.integer("world_seed_offset", 0))
	sc.IndexCellM = b.num("index_cell_m", 1000)
	if err := b.finish(); err != nil {
		return err
	}
	if sc.Name == "" {
		return fmt.Errorf("%w: [scenario] name", ErrMissing)
	}
	if sc.Origin.Lat < -90 || sc.Origin.Lat > 90 || sc.Origin.Lon < -180 || sc.Origin.Lon > 180 {
		return fmt.Errorf("%w: [scenario] origin (%v)", ErrOutOfRange, sc.Origin)
	}
	if sc.IndexCellM <= 0 {
		return fmt.Errorf("%w: [scenario] index_cell_m must be positive", ErrOutOfRange)
	}
	return nil
}

func bindWorld(sec *Section, w *WorldSpec) error {
	b := newBinder(sec)
	opt := func(key string) optFloat {
		if b.has(key) {
			return optFloat{Set: true, V: b.num(key, 0)}
		}
		b.num(key, 0) // mark known
		return optFloat{}
	}
	w.VisibleRangeM = opt("visible_range_m")
	w.EnvRadiusM = opt("env_radius_m")
	w.NoiseFloorDBm = opt("noise_floor_dbm")
	w.StaticShadowSigmaDB = opt("static_shadow_sigma_db")
	w.StaticShadowCorrM = opt("static_shadow_corr_m")
	w.ShadowSigmaDB = opt("shadow_sigma_db")
	w.ShadowDecorrM = opt("shadow_decorr_m")
	w.FadingSigmaDB = opt("fading_sigma_db")
	w.HysteresisDB = opt("hysteresis_db")
	if b.has("time_to_trigger") {
		w.TimeToTrigger = optInt{Set: true, V: b.integer("time_to_trigger", 0)}
	} else {
		b.integer("time_to_trigger", 0)
	}
	w.L3Alpha = opt("l3_alpha")
	w.LoadMean = opt("load_mean")
	w.LoadAlpha = opt("load_alpha")
	w.LoadStd = opt("load_std")
	if err := b.finish(); err != nil {
		return err
	}
	for name, f := range map[string]optFloat{
		"visible_range_m": w.VisibleRangeM, "env_radius_m": w.EnvRadiusM,
		"static_shadow_sigma_db": w.StaticShadowSigmaDB, "shadow_sigma_db": w.ShadowSigmaDB,
		"fading_sigma_db": w.FadingSigmaDB, "hysteresis_db": w.HysteresisDB,
		"load_std": w.LoadStd,
	} {
		if f.Set && f.V < 0 {
			return fmt.Errorf("%w: [world] %s must be non-negative", ErrOutOfRange, name)
		}
	}
	if w.VisibleRangeM.Set && w.VisibleRangeM.V == 0 {
		return fmt.Errorf("%w: [world] visible_range_m must be positive", ErrOutOfRange)
	}
	if w.LoadMean.Set && (w.LoadMean.V < 0 || w.LoadMean.V > 1) {
		return fmt.Errorf("%w: [world] load_mean must be in [0,1]", ErrOutOfRange)
	}
	if w.LoadAlpha.Set && (w.LoadAlpha.V <= 0 || w.LoadAlpha.V >= 1) {
		return fmt.Errorf("%w: [world] load_alpha must be in (0,1)", ErrOutOfRange)
	}
	return nil
}

func bindPathloss(sec *Section, sc *Scenario) error {
	b := newBinder(sec)
	pl := &PathlossSpec{}
	pl.RefLossDB = b.num("ref_loss_db", 0)
	pl.RefDistM = b.num("ref_dist_m", 0)
	pl.DefaultExp = b.num("default_exp", 0)
	for _, kv := range sec.Keys {
		class, ok := landUseKey[kv.Key]
		if !ok {
			continue
		}
		v := b.num(kv.Key, 0)
		if v <= 0 {
			return fmt.Errorf("%w: [pathloss] %s: exponent must be positive", ErrOutOfRange, kv.Key)
		}
		if pl.Exponents == nil {
			pl.Exponents = make(map[uint8]float64)
		}
		pl.Exponents[class] = v
	}
	if err := b.finish(); err != nil {
		return err
	}
	if pl.RefLossDB < 0 || pl.RefDistM < 0 {
		return fmt.Errorf("%w: [pathloss] reference loss/distance must be non-negative", ErrOutOfRange)
	}
	if b.has("default_exp") && pl.DefaultExp <= 0 {
		return fmt.Errorf("%w: [pathloss] default_exp must be positive", ErrOutOfRange)
	}
	sc.Pathloss = pl
	return nil
}

func bindEnv(sec *Section, e *EnvSpec) error {
	b := newBinder(sec)
	e.ExtentKm = b.num("extent_km", 0)
	e.CellM = b.num("cell_m", 0)
	e.CoreKm = b.num("core_km", 0)
	e.PoIPerKm2 = b.num("poi_per_km2", 0)
	e.SeedOffset = int64(b.integer("seed_offset", 0))
	e.CentersAsCores = b.boolean("centers_as_cores", false)
	e.CoreRadiusKm = b.num("core_radius_km", 0)
	if err := b.finish(); err != nil {
		return err
	}
	if e.ExtentKm <= 0 {
		return fmt.Errorf("%w: [env] extent_km must be positive", ErrOutOfRange)
	}
	if e.CellM < 0 || e.CoreKm < 0 || e.PoIPerKm2 < 0 || e.CoreRadiusKm < 0 {
		return fmt.Errorf("%w: [env] negative dimension", ErrOutOfRange)
	}
	if e.CentersAsCores && e.CoreRadiusKm <= 0 {
		return fmt.Errorf("%w: [env] centers_as_cores requires core_radius_km", ErrMissing)
	}
	return nil
}

func bindCenter(sec *Section, sc *Scenario) error {
	b := newBinder(sec)
	c := CenterSpec{
		Bearing:   b.num("bearing", 0),
		DistanceM: b.num("distance_m", 0),
	}
	if err := b.finish(); err != nil {
		return err
	}
	if c.DistanceM < 0 {
		return fmt.Errorf("%w: [center] distance_m must be non-negative", ErrOutOfRange)
	}
	sc.Centers = append(sc.Centers, c)
	return nil
}

func bindLayout(sec *Section, sc *Scenario) error {
	b := newBinder(sec)
	l := LayoutSpec{
		Kind:       b.str("kind", ""),
		Center:     b.integer("center", -1),
		FromCenter: -1, ToCenter: -1,
	}
	switch l.Kind {
	case "grid":
		l.ExtentKm = b.num("extent_km", 0)
		l.SitesPerKm2 = b.num("sites_per_km2", 0)
		l.Sectors = b.integer("sectors", 0)
		l.Jitter = b.num("jitter", 0)
		l.PMaxDBm = b.num("pmax_dbm", 0)
		l.PMaxJitterDB = b.num("pmax_jitter_db", 0)
		l.HeightM = b.num("height_m", 0)
		l.BeamWidthDeg = b.num("beam_width_deg", 0)
		l.PeakGainDBi = b.num("peak_gain_dbi", 0)
		l.FrontToBackDB = b.num("front_to_back_db", 0)
		l.ReportErrM = b.num("report_err_m", 0)
		l.ReportErrDB = b.num("report_err_db", 0)
	case "corridor":
		l.HasAnchorOffset = b.has("anchor_distance_m") || b.has("anchor_bearing")
		l.AnchorBearing = b.num("anchor_bearing", 0)
		l.AnchorDistanceM = b.num("anchor_distance_m", 0)
		l.Bearing = b.num("bearing", 0)
		l.FromCenter = b.integer("from_center", -1)
		l.ToCenter = b.integer("to_center", -1)
		l.LengthKm = b.num("length_km", 0)
		l.SpacingM = b.num("spacing_m", 0)
		l.PMaxDBm = b.num("pmax_dbm", 0)
	default:
		return fmt.Errorf("%w: [layout] kind must be \"grid\" or \"corridor\" (got %q)", ErrBadValue, l.Kind)
	}
	if err := b.finish(); err != nil {
		return err
	}
	switch l.Kind {
	case "grid":
		if l.ExtentKm <= 0 || l.SitesPerKm2 <= 0 {
			return fmt.Errorf("%w: [layout] grid needs positive extent_km and sites_per_km2", ErrOutOfRange)
		}
		if l.BeamWidthDeg < 0 || l.BeamWidthDeg >= 360 {
			return fmt.Errorf("%w: [layout] beam_width_deg", ErrOutOfRange)
		}
	case "corridor":
		if l.LengthKm <= 0 || l.SpacingM <= 0 {
			return fmt.Errorf("%w: [layout] corridor needs positive length_km and spacing_m", ErrOutOfRange)
		}
		if (l.FromCenter >= 0) != (l.ToCenter >= 0) {
			return fmt.Errorf("%w: [layout] from_center and to_center come as a pair", ErrBadValue)
		}
	}
	sc.Layouts = append(sc.Layouts, l)
	return nil
}

func bindMeasure(sec *Section, sc *Scenario) error {
	b := newBinder(sec)
	m := MeasureSpec{
		Name:     b.str("name", ""),
		Profile:  b.str("profile", ""),
		Profile2: b.str("profile2", ""),

		SpeedMean:  b.num("speed_mean", 0),
		SpeedStd:   b.num("speed_std", 0),
		SpeedMin:   b.num("speed_min", 0),
		SpeedMax:   b.num("speed_max", 0),
		SpeedAlpha: b.num("speed_alpha", 0),

		DurationS:     b.num("duration_s", 0),
		IntervalS:     b.num("interval_s", 1),
		TurnEveryS:    b.num("turn_every_s", 0),
		TurnJitterDeg: b.num("turn_jitter_deg", 0),
		GridSnap:      b.boolean("grid_snap", false),
		Runs:          b.integer("runs", 6),

		RouteSeedBase: int64(b.integer("route_seed_base", 0)),
		DriveSeedBase: int64(b.integer("drive_seed_base", 0)),

		Placement: b.str("placement", ""),
		Center:    b.integer("center", -1),

		FromCenter: -1, ToCenter: -1,
	}
	switch m.Placement {
	case "arc":
		m.TrainBearing = b.num("train_bearing", 0)
		m.TestBearing = b.num("test_bearing", 0)
		m.BearingStep = b.num("bearing_step", 0)
		m.RadiusBaseM = b.num("radius_base_m", 0)
		m.RadiusStepM = b.num("radius_step_m", 0)
		m.RadiusMod = b.integer("radius_mod", 3)
		m.HasNudge = b.has("nudge_distance_m")
		m.NudgeBearing = b.num("nudge_bearing", 0)
		m.NudgeDistanceM = b.num("nudge_distance_m", 0)
		m.RouteBearingBase = b.integer("route_bearing_base", 0)
		m.RouteBearingStep = b.integer("route_bearing_step", 0)
	case "line":
		m.HasLineAnchorOffset = b.has("anchor_distance_m") || b.has("anchor_bearing")
		m.LineAnchorBearing = b.num("anchor_bearing", 0)
		m.LineAnchorDistanceM = b.num("anchor_distance_m", 0)
		m.LineBearing = b.num("bearing", 0)
		m.FromCenter = b.integer("from_center", -1)
		m.ToCenter = b.integer("to_center", -1)
		m.TrainOffsetM = b.num("train_offset_m", 0)
		m.TestOffsetM = b.num("test_offset_m", 0)
		m.OffsetStepM = b.num("offset_step_m", 0)
		m.OffsetMod = b.integer("offset_mod", 3)
	default:
		return fmt.Errorf("%w: [measure] placement must be \"arc\" or \"line\" (got %q)", ErrBadValue, m.Placement)
	}
	if err := b.finish(); err != nil {
		return err
	}
	if m.Name == "" {
		return fmt.Errorf("%w: [measure] name", ErrMissing)
	}
	if m.DurationS <= 0 {
		return fmt.Errorf("%w: [measure] %s: duration_s must be positive", ErrOutOfRange, m.Name)
	}
	if m.IntervalS <= 0 {
		return fmt.Errorf("%w: [measure] %s: interval_s must be positive", ErrOutOfRange, m.Name)
	}
	if m.Runs < 2 || m.Runs%2 != 0 {
		return fmt.Errorf("%w: [measure] %s: runs must be a positive even count (half train, half test)", ErrOutOfRange, m.Name)
	}
	if m.Placement == "arc" && m.RadiusMod <= 0 {
		return fmt.Errorf("%w: [measure] %s: radius_mod must be positive", ErrOutOfRange, m.Name)
	}
	if m.Placement == "line" {
		if m.OffsetMod <= 0 {
			return fmt.Errorf("%w: [measure] %s: offset_mod must be positive", ErrOutOfRange, m.Name)
		}
		if (m.FromCenter >= 0) != (m.ToCenter >= 0) {
			return fmt.Errorf("%w: [measure] %s: from_center and to_center come as a pair", ErrBadValue, m.Name)
		}
	}
	if _, err := m.profileFor(0); err != nil {
		return err
	}
	if _, err := m.profileFor(1); err != nil {
		return err
	}
	sc.Measures = append(sc.Measures, m)
	return nil
}

// crossValidate checks index references and name uniqueness across
// sections.
func crossValidate(sc *Scenario) error {
	checkCenter := func(where string, idx int) error {
		if idx < -1 || idx >= len(sc.Centers) {
			return fmt.Errorf("%w: %s references center %d (have %d)", ErrOutOfRange, where, idx, len(sc.Centers))
		}
		return nil
	}
	for i, l := range sc.Layouts {
		where := fmt.Sprintf("[[layout]] #%d", i+1)
		if err := checkCenter(where, l.Center); err != nil {
			return err
		}
		if l.FromCenter >= 0 {
			if err := checkCenter(where, l.FromCenter); err != nil {
				return err
			}
			if err := checkCenter(where, l.ToCenter); err != nil {
				return err
			}
		}
	}
	seen := map[string]bool{}
	for i, m := range sc.Measures {
		where := fmt.Sprintf("[[measure]] %q", m.Name)
		if seen[m.Name] {
			return fmt.Errorf("%w: duplicate measure name %q", ErrBadValue, m.Name)
		}
		seen[m.Name] = true
		if err := checkCenter(where, m.Center); err != nil {
			return err
		}
		if m.FromCenter >= 0 {
			if err := checkCenter(where, m.FromCenter); err != nil {
				return err
			}
			if err := checkCenter(where, m.ToCenter); err != nil {
				return err
			}
		}
		_ = i
	}
	return nil
}
