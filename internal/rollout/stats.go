package rollout

import (
	"fmt"

	"gendt/internal/lb"
)

// budgetBaseline is the pre-rollout health the post-readmit windows are
// judged against: the fleet's cumulative error rate and p99 latency at the
// moment the rollout started.
type budgetBaseline struct {
	requests int64
	errRate  float64
	p99ms    float64
}

// windowStats is one post-readmit observation window, computed from the
// delta between two /debug/vars snapshots.
type windowStats struct {
	requests int64
	errRate  float64
	p99ms    float64
}

func baselineFrom(v lb.VarsSnap) budgetBaseline {
	b := budgetBaseline{requests: v.Requests}
	if v.Requests > 0 {
		b.errRate = float64(v.Errors) / float64(v.Requests)
	}
	b.p99ms = v.Latency.Quantile(0.99)
	return b
}

func windowFrom(pre, post lb.VarsSnap) windowStats {
	w := windowStats{requests: post.Requests - pre.Requests}
	if w.requests > 0 {
		w.errRate = float64(post.Errors-pre.Errors) / float64(w.requests)
	}
	w.p99ms = post.Latency.Sub(pre.Latency).Quantile(0.99)
	return w
}

// checkBudget decides whether a post-readmit window breached the error
// budget. Windows smaller than minRequests trivially pass — too little
// traffic to tell anything. The latency cap only applies when the baseline
// had traffic of its own; a cold fleet has no p99 to multiply.
func checkBudget(base budgetBaseline, w windowStats, errBudget, p99Factor float64, minRequests int64) error {
	if w.requests < minRequests {
		return nil
	}
	if limit := base.errRate + errBudget; w.errRate > limit {
		return fmt.Errorf("window error rate %.4f exceeds baseline %.4f + budget %.4f (%d requests)",
			w.errRate, base.errRate, errBudget, w.requests)
	}
	if base.requests > 0 && base.p99ms > 0 {
		if limit := base.p99ms * p99Factor; w.p99ms > limit {
			return fmt.Errorf("window p99 %.0fms exceeds baseline %.0fms x %.1f (%d requests)",
				w.p99ms, base.p99ms, p99Factor, w.requests)
		}
	}
	return nil
}
