package validate

import (
	"fmt"
	"math"
	"strings"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/metrics"
)

// hwdBins is the histogram resolution of the HWD gate, matching the
// paper's 50-bin evaluation scaled down for the short held-out routes the
// gate generates.
const hwdBins = 40

// RequestSeed is the request seed of the distributional pass's sample s of
// held-out route ri: two DeriveSeed levels over the run seed. A serving
// replica fans a request out as DeriveSeed(reqSeed, i), so each sample is
// the answer to a samples=1 /v1/generate request, which the served check
// replays.
func RequestSeed(seed int64, ri, s int) int64 {
	return core.DeriveSeed(core.DeriveSeed(seed, ri), s)
}

// distributionChecks generates SamplesPerRoute independent samples per
// held-out route on the serving path, pools generated and ground-truth
// values per channel, and gates the five distributional statistics against
// the golden tolerances. All statistics are computed in normalized [0,1]
// units so one tolerance scale covers channels with very different
// physical ranges.
func distributionChecks(sp *servingPath, channels []core.ChannelSpec, routes []dataset.Run, seqs []*core.Sequence, opts Options, rep *Report) {
	nch := len(channels)
	genPool := make([][]float64, nch) // generated values pooled over routes×samples
	gtPool := make([][]float64, nch)  // ground truth pooled over routes (once each)
	acfErr := make([]float64, nch)    // per-channel |Δautocorr| sums
	acfN := make([]float64, nch)

	for ri, seq := range seqs {
		gtCols := columns(seq.KPIs, nch)
		for c := 0; c < nch; c++ {
			gtPool[c] = append(gtPool[c], gtCols[c]...)
		}
		for s := 0; s < opts.SamplesPerRoute; s++ {
			gen := sp.sample(fmt.Sprintf("route %d sample %d", ri, s), routes[ri].Traj, RequestSeed(opts.Seed, ri, s))
			genCols := columns(gen, nch)
			for c := 0; c < nch; c++ {
				genPool[c] = append(genPool[c], genCols[c]...)
				// Autocorrelation compares per route (never across route
				// seams) so it measures temporal structure, not pooling
				// artifacts.
				for _, lag := range AutocorrLags {
					if len(genCols[c]) <= lag {
						continue
					}
					d := math.Abs(metrics.Autocorr(genCols[c], lag) - metrics.Autocorr(gtCols[c], lag))
					acfErr[c] += d
					acfN[c]++
				}
			}
		}
	}

	for c := 0; c < nch; c++ {
		name := channels[c].Name
		obs := ChannelStats{Channel: name}
		ks, err := metrics.KS(genPool[c], gtPool[c])
		if err != nil {
			rep.add(CheckResult{Name: "dist/" + name + "/ks", Passed: false, Detail: err.Error()})
			continue
		}
		obs.KS = ks
		hwd, err := metrics.HWD(genPool[c], gtPool[c], hwdBins)
		if err != nil {
			rep.add(CheckResult{Name: "dist/" + name + "/hwd", Passed: false, Detail: err.Error()})
			continue
		}
		obs.HWD = hwd
		obs.MeanAbs = math.Abs(metrics.Mean(genPool[c]) - metrics.Mean(gtPool[c]))
		obs.StdAbs = math.Abs(metrics.Std(genPool[c]) - metrics.Std(gtPool[c]))
		if acfN[c] > 0 {
			obs.Autocorr = acfErr[c] / acfN[c]
		}
		rep.Observed = append(rep.Observed, obs)

		if opts.Golden == nil {
			for _, metric := range []string{"ks", "hwd", "mean", "std", "autocorr"} {
				rep.skip("dist/"+name+"/"+metric, "no golden tolerances (observe-only)")
			}
			continue
		}
		tol, ok := opts.Golden.channel(name)
		if !ok {
			rep.add(CheckResult{
				Name: "dist/" + name + "/golden", Passed: false,
				Detail: fmt.Sprintf("golden file has no tolerances for channel %s", name),
			})
			continue
		}
		gate := func(metric string, observed, limit float64) {
			rep.add(CheckResult{
				Name: "dist/" + name + "/" + metric, Passed: observed <= limit,
				Observed: observed, Limit: limit,
			})
		}
		gate("ks", obs.KS, tol.KS)
		gate("hwd", obs.HWD, tol.HWD)
		gate("mean", obs.MeanAbs, tol.MeanAbs)
		gate("std", obs.StdAbs, tol.StdAbs)
		gate("autocorr", obs.Autocorr, tol.Autocorr)
	}

	if opts.Golden != nil {
		goldenConfigCheck(opts, rep)
	}
}

// goldenConfigCheck fails dist/golden-config when the golden was derived
// under a dataset, route count, sample count or seed other than this
// run's: tolerances only bound statistics computed like for like.
func goldenConfigCheck(opts Options, rep *Report) {
	g := opts.Golden
	var diffs []string
	differ := func(field string, golden, run any) {
		if golden != run {
			diffs = append(diffs, fmt.Sprintf("%s: golden %v, run %v", field, golden, run))
		}
	}
	differ("dataset", g.Dataset, rep.Dataset)
	differ("routes", g.Routes, opts.Routes)
	differ("samples_per_route", g.SamplesPerRoute, opts.SamplesPerRoute)
	differ("seed", g.Seed, opts.Seed)
	if len(diffs) > 0 {
		rep.add(CheckResult{Name: "dist/golden-config", Passed: false, Detail: strings.Join(diffs, "; ")})
	}
}

// columns transposes a [T][nch] series into per-channel columns.
func columns(series [][]float64, nch int) [][]float64 {
	out := make([][]float64, nch)
	for c := 0; c < nch; c++ {
		col := make([]float64, len(series))
		for t := range series {
			col[t] = series[t][c]
		}
		out[c] = col
	}
	return out
}
