package main

import (
	"encoding/json"
	"fmt"
	"math"

	"gendt/internal/core"
	"gendt/internal/geo"
	"gendt/internal/serve"
)

// Verification runs after every timed window and compares floats exactly:
// the repository's contract is that model fingerprint + route + seed give the
// same floats on every path.

func finiteSeries(s [][]float64) error {
	for c, ch := range s {
		for t, v := range ch {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("channel %d step %d is %v", c, t, v)
			}
		}
	}
	return nil
}

func sameSeries(what string, got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d channels, want %d", what, len(got), len(want))
	}
	for c := range want {
		if len(got[c]) != len(want[c]) {
			return fmt.Errorf("%s: channel %d has %d steps, want %d", what, c, len(got[c]), len(want[c]))
		}
		for t := range want[c] {
			if got[c][t] != want[c][t] {
				return fmt.Errorf("%s: channel %d step %d is %v, want %v", what, c, t, got[c][t], want[c][t])
			}
		}
	}
	return nil
}

// verifyJob checks one bulk output against the job-at-a-time reference,
// DenormalizeSeries(GenerateSeeded), and that it is finite.
func verifyJob(gen core.Generator, job core.GenJob, got [][]float64) error {
	if err := finiteSeries(got); err != nil {
		return err
	}
	want := gen.DenormalizeSeries(gen.GenerateSeeded(job.Seq, job.Seed))
	return sameSeries("series", got, want)
}

// verifyResponse checks one recorded /v1/generate body against an offline
// Prepare + GenerateJobs of the same route and seed. world is the verifier's
// own, so the fleet's caches are not touched.
func verifyResponse(gen core.Generator, world *serve.World, traj geo.Trajectory, seed int64, samples int, body []byte) error {
	var resp serve.GenerateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if resp.Seed != seed || resp.Samples != samples {
		return fmt.Errorf("response is for seed %d × %d samples, want seed %d × %d", resp.Seed, resp.Samples, seed, samples)
	}
	if resp.Steps != len(traj) {
		return fmt.Errorf("steps %d, want route length %d", resp.Steps, len(traj))
	}
	seq, _ := world.Prepare(traj, gen)
	jobs := make([]core.GenJob, samples)
	for i := range jobs {
		jobs[i] = core.GenJob{Seq: seq, Seed: core.DeriveSeed(seed, i)}
	}
	want := gen.GenerateJobs(jobs)
	if err := finiteSeries(resp.Series); err != nil {
		return err
	}
	if err := sameSeries("series", resp.Series, want[0]); err != nil {
		return err
	}
	if samples == 1 {
		return nil
	}
	if resp.Envelope == nil {
		return fmt.Errorf("no envelope for %d samples", samples)
	}
	min, max, mean := core.Envelope(want)
	for _, p := range []struct {
		what      string
		got, want [][]float64
	}{{"envelope min", resp.Envelope.Min, min}, {"envelope max", resp.Envelope.Max, max}, {"envelope mean", resp.Envelope.Mean, mean}} {
		if err := sameSeries(p.what, p.got, p.want); err != nil {
			return err
		}
	}
	for c := range mean {
		for t := range mean[c] {
			lo, mid, hi := resp.Envelope.Min[c][t], resp.Envelope.Mean[c][t], resp.Envelope.Max[c][t]
			// The mean is a rounded sum: allow it an ulp or so past the ends.
			eps := 1e-9 * math.Max(1, math.Abs(mid))
			if !(lo <= hi && lo-eps <= mid && mid <= hi+eps) {
				return fmt.Errorf("envelope channel %d step %d: min %v mean %v max %v out of order", c, t, lo, mid, hi)
			}
		}
	}
	return nil
}
