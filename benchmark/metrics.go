package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The tables in this file are the benchmark's contract: BENCHMARK.json at the
// repository root lists the same workloads and metrics, and a test holds the
// two together.

// workload names one set of inputs; tailPct is the percentile tail_ms is
// reported at, fixed per workload so that the metric keeps one meaning when
// a faster program completes more operations (see README, "tail_ms").
type workload struct {
	name    string
	why     string
	tailPct float64
}

var workloads = []workload{
	{"bulk-f32", "closed loop in-process GenerateJobs on the f32 kernels: nn and core do all the work, serve and lb none", 90},
	{"bulk-int8", "the same jobs on the int8 kernels, so a gain for one precision that costs the other shows", 50},
	{"serve-short", "open loop Poisson arrivals, hot 24-step routes via lb: batch window, HTTP and JSON dominate, the engine is a fifth", 95},
	{"serve-envelope", "paced 8-sample requests on 256 distinct 48-step routes via lb: every prepare misses and the engine dominates", 95},
	{"train", "closed loop f64 BPTT epochs, the path frozen-kernel work never touches but an engine refactor might", 50},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec describes one metric. bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics have none.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a user of the system sees. Every workload reports every
// one; the README table says what each means on each workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"steps_per_s", "1/s", "higher", 0.15},
	{"p50_ms", "ms", "lower", 0.10},
	{"tail_ms", "ms", "lower", 0.20},
}

// ladderRungs is the number of rates each serving workload is offered.
const ladderRungs = 4

// perLayer lists the metrics of single layers, in report order. A layer a
// workload does not exercise reads 0 on that workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		// nn: direct kernel calls at the node-LSTM gate shape.
		{"nn.gemv_f32_ns", "ns", "lower", 0},
		{"nn.gemm_f32x8_ns", "ns", "lower", 0},
		{"nn.matvec_int8_ns", "ns", "lower", 0},
		{"nn.gate_flop", "count", "lower", 0},
		{"nn.gate_bytes_f32", "count", "lower", 0},
		{"nn.gate_bytes_int8", "count", "lower", 0},
		{"nn.gemv_f32_gflops", "flop/ns", "higher", 0},
		// core: the generation engine on one worker, ns per lane-step.
		{"core.f32_x1_step_ns", "ns", "lower", 0},
		{"core.f32_x8_step_ns", "ns", "lower", 0},
		{"core.int8_x1_step_ns", "ns", "lower", 0},
		{"core.int8_x8_step_ns", "ns", "lower", 0},
		{"core.batch_gain_f32", "ratio", "higher", 0},
		{"core.batch_gain_int8", "ratio", "higher", 0},
		{"core.worker_scaling", "ratio", "higher", 0},
		{"core.lane_fill", "ratio", "higher", 0},
		{"core.allocs_per_seq", "count", "lower", 0},
		{"core.generate_us_p50", "us", "lower", 0},
		{"core.generate_us_p95", "us", "lower", 0},
		// serve: spans around the handler and the engine, and replayed calls.
		{"serve.pre_us", "us", "lower", 0},
		{"serve.post_us", "us", "lower", 0},
		{"serve.json_decode_us", "us", "lower", 0},
		{"serve.prepare_hit_us", "us", "lower", 0},
		{"serve.prepare_miss_us", "us", "lower", 0},
		{"serve.json_encode_us", "us", "lower", 0},
		{"serve.batch_wait_us", "us", "lower", 0},
		{"serve.prep_hit_share", "ratio", "higher", 0},
		{"serve.batch_jobs_mean", "count", "higher", 0},
		{"serve.batch_reqs_mean", "count", "higher", 0},
		// lb
		{"lb.self_us", "us", "lower", 0},
		{"lb.retries", "count", "lower", 0},
		{"lb.sheds", "count", "lower", 0},
		{"lb.replica_skew", "ratio", "lower", 0},
		// the load generator itself
		{"gen.max_ok_rps", "1/s", "higher", 0},
		{"gen.fail_share", "ratio", "lower", 0},
		{"gen.ref_lag_p99_ms", "ms", "lower", 0},
		{"gen.lag_us", "us", "lower", 0},
		{"gen.wire_us", "us", "lower", 0},
		{"gen.cpu_ms_per_request", "ms", "lower", 0},
	}
	for r := 1; r <= ladderRungs; r++ {
		p := fmt.Sprintf("gen.r%d_", r)
		m = append(m,
			metricSpec{p + "rps", "1/s", "higher", 0},
			metricSpec{p + "sent", "count", "higher", 0},
			metricSpec{p + "ok", "count", "higher", 0},
			metricSpec{p + "failed", "count", "lower", 0},
			metricSpec{p + "lag_p99_ms", "ms", "lower", 0},
			metricSpec{p + "tail_ms", "ms", "lower", 0},
		)
	}
	return append(m,
		// train
		metricSpec{"train.epoch_s_p50", "s", "lower", 0},
		metricSpec{"train.first_epoch_s", "s", "lower", 0},
		metricSpec{"train.worker_scaling", "ratio", "higher", 0},
		metricSpec{"train.allocs_per_epoch", "count", "lower", 0},
		metricSpec{"train.final_mse", "ratio", "lower", 0},
		// how setup_s splits
		metricSpec{"dataset.build_s", "s", "lower", 0},
		metricSpec{"core.prepare_all_s", "s", "lower", 0},
		metricSpec{"core.train_fixture_s", "s", "lower", 0},
		metricSpec{"core.freeze_f32_s", "s", "lower", 0},
		metricSpec{"core.freeze_int8_s", "s", "lower", 0},
		metricSpec{"fleet.boot_s", "s", "lower", 0},
		// the process: CPU-profile sample shares, memory, quality, tracing
		metricSpec{"cpu.nn_share", "%", "lower", 0},
		metricSpec{"cpu.core_share", "%", "lower", 0},
		metricSpec{"cpu.rand_share", "%", "lower", 0},
		metricSpec{"cpu.modulate_share", "%", "lower", 0},
		metricSpec{"cpu.serve_share", "%", "lower", 0},
		metricSpec{"cpu.lb_share", "%", "lower", 0},
		metricSpec{"cpu.world_share", "%", "lower", 0},
		metricSpec{"cpu.json_share", "%", "lower", 0},
		metricSpec{"cpu.http_share", "%", "lower", 0},
		metricSpec{"cpu.runtime_share", "%", "lower", 0},
		metricSpec{"cpu.other_share", "%", "lower", 0},
		metricSpec{"mem.peak_rss_mb", "MB", "lower", 0},
		metricSpec{"mem.alloc_kb_per_op", "kB", "lower", 0},
		metricSpec{"mem.gc_pause_ms", "ms", "lower", 0},
		metricSpec{"quality.f32_hwd", "ratio", "lower", 0},
		metricSpec{"quality.int8_hwd", "ratio", "lower", 0},
		metricSpec{"trace.overhead_pct", "%", "lower", 0},
		metricSpec{"trace.spans", "count", "lower", 0},
	)
}

// values maps metric names to measurements.
type values map[string]float64

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   values
	notes     []string // human-readable lines: sample counts, percentiles used
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeReport prints every metric of the requested set by name with its unit
// and ends with the one JSON object the driver reads.
func writeReport(w io.Writer, res result, specs []metricSpec) error {
	out := make(map[string]jsonMetric, len(specs))
	for _, s := range specs {
		v := res.metrics[s.name]
		out[s.name] = jsonMetric{Value: v, Unit: s.unit}
		fmt.Fprintf(w, "%-28s %16.6f %s\n", s.name, v, s.unit)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "note:", n)
	}
	var extra []string
	for k := range res.metrics {
		if _, ok := out[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(w, "info: %-22s %16.6f\n", k, res.metrics[k])
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
