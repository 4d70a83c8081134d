// Package mdt simulates the two alternative measurement-collection
// approaches the paper compares drive testing against conceptually but
// could not evaluate for lack of data (§7.2): 3GPP minimization of drive
// tests (MDT) and app-based crowdsourcing. Both produce measurement runs
// in the same format as drive-test runs, so GenDT can be trained on them
// and the resulting fidelity compared — closing the paper's stated
// future-work gap inside the simulated world.
//
// The simulated pathologies follow the paper's §1-2 discussion:
//
//   - MDT: measurements come from real user devices, so sampling is
//     spatially skewed toward where users are (the urban core), reports
//     are sporadic, and device-side location is noisy (or inferred
//     network-side with worse error).
//   - Crowdsourcing: additionally limited by OS APIs — coarse reporting
//     period and signal-strength-only measurements (RSRP; the other KPIs
//     are unavailable), from a skewed user population.
package mdt

import (
	"math"
	"math/rand"

	"gendt/internal/dataset"
	"gendt/internal/geo"
	"gendt/internal/sim"
)

// Spec parameterizes a simulated MDT or crowdsourcing campaign.
type Spec struct {
	Users      int     // participating devices
	SessionS   float64 // mean session duration per device, seconds
	ReportProb float64 // probability a sample is actually reported
	LocErrM    float64 // stddev of the reported location error, metres
	CoreBiasM  float64 // user sessions cluster within this radius of the core
	Interval   float64 // reporting granularity, seconds
	SignalOnly bool    // crowdsourcing: only RSRP survives in reports
	Seed       int64
}

// DefaultMDT returns paper-flavoured MDT parameters: device-side
// positioning (GNSS) with moderate error, sporadic reporting.
func DefaultMDT(seed int64) Spec {
	return Spec{
		Users: 40, SessionS: 240, ReportProb: 0.5, LocErrM: 40,
		CoreBiasM: 2500, Interval: 1, Seed: seed,
	}
}

// DefaultCrowdsourcing returns crowdsourcing parameters: coarse Telephony
// API granularity, signal-strength only, stronger skew.
func DefaultCrowdsourcing(seed int64) Spec {
	return Spec{
		Users: 40, SessionS: 240, ReportProb: 0.6, LocErrM: 25,
		CoreBiasM: 1500, Interval: 5, SignalOnly: true, Seed: seed,
	}
}

// Collect runs a measurement campaign against the world around the given
// centre point: each user walks or drives a short session biased toward
// the core; the device measures ground truth, but each *report* carries a
// perturbed location — and, crucially, the context annotation is computed
// at the reported location, exactly the error MDT suffers from (§1).
func Collect(w *sim.World, center geo.Point, spec Spec) []dataset.Run {
	rng := rand.New(rand.NewSource(spec.Seed))
	var runs []dataset.Run
	for u := 0; u < spec.Users; u++ {
		// Session start biased toward the core: a uniform bearing and a
		// half-normal distance of scale CoreBiasM from the centre.
		brg := rng.Float64() * 360
		start := geo.Offset(center, brg, math.Abs(rng.NormFloat64())*spec.CoreBiasM)
		profile := geo.WalkProfile
		if rng.Float64() < 0.4 {
			profile = geo.CityDriveProfile
		}
		dur := spec.SessionS * (0.5 + rng.Float64())
		tr := geo.BuildRoute(geo.RouteSpec{
			Start: start, Bearing: rng.Float64() * 360,
			Duration: dur, Interval: spec.Interval,
			Profile: profile, TurnEvery: 60, TurnJitter: 40, GridSnap: true,
		}, rng)
		truth := w.DriveTest(tr, rand.New(rand.NewSource(spec.Seed+int64(u)+1000)))

		// Reported subset with location error and re-annotated context.
		var reported []sim.Measurement
		var repTraj geo.Trajectory
		for i, m := range truth {
			if rng.Float64() > spec.ReportProb {
				continue
			}
			loc := m.Loc
			if spec.LocErrM > 0 {
				loc = geo.Offset(loc, rng.Float64()*360, math.Abs(rng.NormFloat64())*spec.LocErrM)
			}
			r := m
			r.Loc = loc
			// The operator annotates the report with context at the
			// *reported* location.
			r.Visible = w.Deployment.Visible(loc, w.VisibleRange)
			r.EnvCtx = w.Env.ContextAt(loc, w.EnvRadius)
			if spec.SignalOnly {
				// Crowdsourced APIs expose signal strength but not the
				// full KPI set; unavailable KPIs collapse to floors.
				r.RSRQ = -19.5
				r.SINR = -10
				r.CQI = 1
			}
			reported = append(reported, r)
			repTraj = append(repTraj, geo.Sample{Point: loc, T: tr[i].T})
		}
		if len(reported) < 8 {
			continue // too sparse to form a usable run
		}
		runs = append(runs, dataset.Run{
			Scenario: "MDT", Train: true, Traj: repTraj, Meas: reported,
		})
	}
	return runs
}

// SampleCount returns the total reported samples across runs.
func SampleCount(runs []dataset.Run) int {
	total := 0
	for _, r := range runs {
		total += len(r.Meas)
	}
	return total
}

// TrimTo truncates the campaign to at most n samples (whole runs), so
// comparisons against drive-test training data use equal sample budgets.
func TrimTo(runs []dataset.Run, n int) []dataset.Run {
	var out []dataset.Run
	total := 0
	for _, r := range runs {
		if total >= n {
			break
		}
		if total+len(r.Meas) > n {
			keep := n - total
			r = dataset.Run{Scenario: r.Scenario, Train: r.Train,
				Traj: r.Traj[:keep], Meas: r.Meas[:keep]}
		}
		out = append(out, r)
		total += len(r.Meas)
	}
	return out
}
