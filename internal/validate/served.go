package validate

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"gendt/internal/core"
	"gendt/internal/geo"
	"gendt/internal/serve"
)

// servedCall is one /v1/generate request the in-process pass answered,
// with the generator's answer: one denormalized [channel][t] series per
// sample, as a replica would put it on the wire.
type servedCall struct {
	what string
	req  serve.GenerateRequest
	want [][][]float64
}

// servingPath answers route-level requests in-process the way a replica's
// /v1/generate does — World.Prepare annotation, sample i drawn at
// DeriveSeed(reqSeed, i) — and records each request with its answer for
// the served check to replay.
type servingPath struct {
	g     core.Generator
	world *serve.World
	calls []servedCall
}

// sample answers a samples=1 request for route tr at request seed reqSeed
// and returns the sample normalized, [T][nch].
func (sp *servingPath) sample(what string, tr geo.Trajectory, reqSeed int64) [][]float64 {
	seq, _ := sp.world.Prepare(tr, sp.g)
	gen := sp.g.GenerateSeeded(seq, core.DeriveSeed(reqSeed, 0))
	sp.record(what, tr, reqSeed, [][][]float64{sp.g.DenormalizeSeries(gen)})
	return gen
}

// request answers a samples=n request for route tr at request seed reqSeed
// through GenerateJobs, as the handler does.
func (sp *servingPath) request(what string, tr geo.Trajectory, reqSeed int64, n int) {
	seq, _ := sp.world.Prepare(tr, sp.g)
	jobs := make([]core.GenJob, n)
	for i := range jobs {
		jobs[i] = core.GenJob{Seq: seq, Seed: core.DeriveSeed(reqSeed, i)}
	}
	sp.record(what, tr, reqSeed, sp.g.GenerateJobs(jobs))
}

func (sp *servingPath) record(what string, tr geo.Trajectory, reqSeed int64, want [][][]float64) {
	sp.calls = append(sp.calls, servedCall{
		what: what,
		req:  serve.GenerateRequest{Seed: reqSeed, Samples: len(want), Route: serve.RouteFrom(tr)},
		want: want,
	})
}

// checkServed is meta/seed-determinism-http: every request the in-process
// pass answered, plus one samples=2 request sent twice, is replayed over
// /v1/generate — at Options.Target, or at a loopback replica of the
// generator when none is set — and each response must equal the
// generator's own answer bit for bit, series and envelope. Go's
// encoding/json writes float64s in shortest round-trip form, so the
// comparison is exact. A target that passes serves the generator under
// validation on every request the gate made; one that fails serves a
// different model, precision or world, or is not serving at all.
func checkServed(sp *servingPath, tr geo.Trajectory, opts Options, rep *Report) {
	const name = "meta/seed-determinism-http"
	if len(tr) > 64 {
		tr = tr[:64] // the invariant is path identity, not route length
	}
	sp.request("repeated request", tr, opts.Seed, 2)
	calls := append(sp.calls, sp.calls[len(sp.calls)-1])

	base, where, model := opts.Target, opts.Target, opts.TargetModel
	if base == "" {
		srv := serve.New(serve.Options{
			Registry: serve.NewStaticRegistry("validate", sp.g),
			World:    serve.NewWorldFrom(opts.Dataset),
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Close()
		base, where, model = ts.URL, "loopback replica", ""
	}
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	for i, c := range calls {
		c.req.Model = model
		resp, err := serve.PostGenerate(client, base, c.req)
		if err != nil {
			rep.add(CheckResult{Name: name, Passed: false,
				Detail: fmt.Sprintf("%s: request %d (%s): %v", where, i, c.what, err)})
			return
		}
		if detail := c.mismatch(resp); detail != "" {
			rep.add(CheckResult{Name: name, Passed: false,
				Detail: fmt.Sprintf("%s serves a different model: request %d (%s): %s", where, i, c.what, detail)})
			return
		}
	}
	rep.add(CheckResult{Name: name, Passed: true,
		Detail: fmt.Sprintf("%d requests to %s bit-identical to the generator, repeated request included", len(calls), where)})
}

// mismatch describes the first way resp differs from the recorded answer,
// or returns "" when it is bit-identical.
func (c servedCall) mismatch(resp *serve.GenerateResponse) string {
	if ok, detail := seriesEqual(resp.Series, c.want[0]); !ok {
		return "series: " + detail
	}
	if len(c.want) == 1 {
		return ""
	}
	if resp.Envelope == nil {
		return fmt.Sprintf("no envelope for samples=%d", len(c.want))
	}
	min, max, mean := core.Envelope(c.want)
	for _, e := range []struct {
		part      string
		got, want [][]float64
	}{{"min", resp.Envelope.Min, min}, {"max", resp.Envelope.Max, max}, {"mean", resp.Envelope.Mean, mean}} {
		if ok, detail := seriesEqual(e.got, e.want); !ok {
			return "envelope " + e.part + ": " + detail
		}
	}
	return ""
}
