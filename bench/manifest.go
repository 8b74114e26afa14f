package main

import (
	"encoding/json"
)

// This file is the benchmark's table of contents: every metric's name,
// unit and direction, and the BENCHMARK.json derived from them. The file
// at the root of the repository is the output of `-manifest`; a test
// holds the two together.

// metricDef names one metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEndUnits names the end-to-end metrics, in reporting order.
var endToEndUnits = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_us", "us", "lower"},
	{"p90_us", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// endToEndBounds is, per end-to-end metric, the share of the parent's
// median it may worsen by before a change is rejected. Each is about three
// times the widest run-to-run spread (inter-quartile range over median of
// ten runs) any workload showed for it on the seed commit, capped at the
// quarter a bound may be; README.md has the numbers.
var endToEndBounds = map[string]float64{
	"setup_s":     0.25,
	"ops_per_s":   0.20,
	"p50_us":      0.20,
	"p90_us":      0.25,
	"peak_rss_mb": 0.25,
}

// perLayerUnits names every per-layer metric, in reporting order. Every
// traced run reports all of them; a metric whose layer a workload does not
// exercise reads 0 there, which is the prediction ("absent") the
// interaction table in README.md makes for it.
var perLayerUnits = []metricDef{
	{"net.self_us", "us", "lower"},
	{"server.handler_us", "us", "lower"},
	{"server.self_us", "us", "lower"},
	{"server.decode_us", "us", "lower"},
	{"server.encode_us", "us", "lower"},
	{"server.resp_bytes", "B", "lower"},
	{"server.allocs_per_op", "count", "lower"},
	{"server.rejected_ratio", "ratio", "lower"},
	{"core.optimize_us", "us", "lower"},
	{"core.plans_considered_per_op", "count", "lower"},
	{"core.resource_iters_per_op", "count", "lower"},
	{"core.memo_hit_ratio", "ratio", "higher"},
	{"core.joint_over_qo_ratio", "ratio", "lower"},
	{"optimizer.enum_self_us", "us", "lower"},
	{"optimizer.selinger_us", "us", "lower"},
	{"optimizer.randomized_us", "us", "lower"},
	{"resource.plan_us", "us", "lower"},
	{"resource.plan_calls_per_op", "count", "lower"},
	{"resource.cache_hit_ratio", "ratio", "higher"},
	{"resource.hc_over_bf_evals_ratio", "ratio", "lower"},
	{"resource.cached_over_uncached_ratio", "ratio", "lower"},
	{"cost.evals_per_op", "count", "lower"},
	{"cost.ns_per_eval", "ns", "lower"},
	{"cost.model_rel_err_p50", "ratio", "lower"},
	{"arbiter.submitwait_us", "us", "lower"},
	{"cloud.submitwait_us", "us", "lower"},
	{"arbiter.replanned_ratio", "ratio", "lower"},
	{"arbiter.degraded_ratio", "ratio", "lower"},
	{"arbiter.reopt_exact_ratio", "ratio", "higher"},
	{"arbiter.reopt_patched_ratio", "ratio", "higher"},
	{"arbiter.reopt_full_ratio", "ratio", "lower"},
	{"cloud.usd_per_query", "USD", "lower"},
	{"arbiter.lock_wait_share", "ratio", "lower"},
	{"fleet.hop_self_us", "us", "lower"},
	{"fleet.forward_ratio", "ratio", "lower"},
	{"fleet.hot_hit_ratio", "ratio", "higher"},
	{"fleet.ring_owner_ns", "ns", "lower"},
	{"fleet.degraded_ratio", "ratio", "lower"},
	{"fleet.hop_overhead_ratio", "ratio", "lower"},
	{"feedback.feed_us", "us", "lower"},
	{"feedback.journal_bytes_per_obs", "B", "lower"},
	{"feedback.recal_ms", "ms", "lower"},
	{"history.append_ns_per_point", "ns", "lower"},
	{"history.commit_us", "us", "lower"},
	{"history.query_us", "us", "lower"},
	{"history.bytes_per_point", "B", "lower"},
	{"setup.replay_ms", "ms", "lower"},
	{"setup.construct_ms", "ms", "lower"},
	{"setup.warm_ms", "ms", "lower"},
	{"process.cpu_us_per_op", "us", "lower"},
	{"process.allocs_per_op", "count", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},
	{"client.p99_us", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// manifest renders BENCHMARK.json.
func manifest() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: nominalSeconds,
	}
	for _, s := range specs {
		doc.Workloads = append(doc.Workloads, workload{s.name, s.why})
	}
	for _, m := range endToEndUnits {
		doc.EndToEnd = append(doc.EndToEnd, bounded{m.name, m.unit, m.better, endToEndBounds[m.name]})
	}
	for _, m := range perLayerUnits {
		doc.PerLayer = append(doc.PerLayer, unbounded{m.name, m.unit, m.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // literals only
	}
	return append(b, '\n')
}
