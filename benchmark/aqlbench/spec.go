package main

import "encoding/json"

// This file is the benchmark's declaration: workloads with the reason
// each exists, end-to-end metrics with direction and regression bound,
// per-layer metrics with direction. BENCHMARK.json at the repository root
// is `aqlbench -spec` verbatim (a test holds the two equal), so the
// program and its registration cannot drift.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is how long one driver run measures.
const runSeconds = 15

var workloadSpecs = []workloadSpec{
	{"adhoc_compile", "4096 distinct statements over tiny tables cycle past the 256-entry compile cache, so parse+translate+plan is a large share: guards the compile path and request shape"},
	{"scan_stream_text", "one cached prepared scan of 5000x8 rows streamed in text mode: all time is xqeval scan/project + text wrap + resultset decode, the per-row hot loop; first row must lead the last"},
	{"join_group_xml", "cached join+group+order report, NULL-padded outer join and NOT EXISTS drill, XML mode, materialized: same layers used through hash/group barriers and XML decode instead of a stream"},
	{"served_point", "2 TCP sessions, 70% prepared point lookup, 15% metadata browse, 15% prepared drill: per-request cost (HTTP, JSON envelope, session table, admission, cursor round trips) outweighs evaluation"},
	{"served_scan", "2 TCP sessions fetch the 2500x8 scan in 256-row chunks: uses wire/server/remoteclient per row instead of per request; its rows_per_s over scan_stream_text's is the price of the wire"},
}

func bound(b float64) *float64 { return &b }

var endToEnd = []metricSpec{
	// Timing bounds are the widest the driver allows, not the issue's 10 %:
	// on this shared 2-core box the same binary's medians move up to 6 %
	// between two sets of ten runs and a set's quartiles spread 2–13 %
	// depending on the hour (README, "How steady it is"); the driver
	// refuses a benchmark whose spread exceeds a bound.
	{"query_p50_ms", "ms", "lower", bound(0.25)},
	{"query_p90_ms", "ms", "lower", bound(0.25)},
	{"first_row_p50_ms", "ms", "lower", bound(0.25)},
	{"queries_per_s", "1/s", "higher", bound(0.25)},
	{"rows_per_s", "1/s", "higher", bound(0.25)},
	{"allocs_per_query", "count", "lower", bound(0.02)},
	{"alloc_bytes_per_query", "B", "lower", bound(0.02)},
	{"setup_s", "s", "lower", bound(0.25)},
}

var perLayer = []metricSpec{
	// Compile path, step by step on the workload's own statements.
	{Name: "sqlparser.parse_us", Unit: "us", Better: "lower"},
	{Name: "qfront.normalize_us", Unit: "us", Better: "lower"},
	{Name: "translator.translate_us", Unit: "us", Better: "lower"},
	{Name: "translator.xquery_bytes", Unit: "B", Better: "lower"},
	{Name: "xqeval.plan_us", Unit: "us", Better: "lower"},
	{Name: "catalog.lookup_us", Unit: "us", Better: "lower"},
	{Name: "catalog.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "qcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "qcache.hit_us", Unit: "us", Better: "lower"},
	{Name: "qcache.miss_us", Unit: "us", Better: "lower"},
	{Name: "qcache.evictions", Unit: "count", Better: "lower"},
	// Evaluation and decode.
	{Name: "xqeval.open_us", Unit: "us", Better: "lower"},
	{Name: "xqeval.eval_us_per_row", Unit: "us", Better: "lower"},
	{Name: "xqeval.steps_per_row", Unit: "count", Better: "lower"},
	{Name: "xqeval.tuples_per_row", Unit: "count", Better: "lower"},
	{Name: "xqeval.allocs_per_row", Unit: "count", Better: "lower"},
	{Name: "resultset.decode_us_per_row", Unit: "us", Better: "lower"},
	{Name: "resultset.allocs_per_row", Unit: "count", Better: "lower"},
	{Name: "aqualogic.self_us_per_query", Unit: "us", Better: "lower"},
	{Name: "driver.self_us_per_query", Unit: "us", Better: "lower"},
	// Served path.
	{Name: "server.handler_us_per_request", Unit: "us", Better: "lower"},
	{Name: "server.backend_us_per_request", Unit: "us", Better: "lower"},
	{Name: "server.self_us_per_request", Unit: "us", Better: "lower"},
	{Name: "server.requests_per_op", Unit: "count", Better: "lower"},
	{Name: "server.peak_in_flight", Unit: "count", Better: "lower"},
	{Name: "server.admission_rejected", Unit: "count", Better: "lower"},
	{Name: "wire.resp_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.resp_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "wire.encode_us_per_row", Unit: "us", Better: "lower"},
	{Name: "wire.decode_us_per_row", Unit: "us", Better: "lower"},
	{Name: "remoteclient.client_transport_us_per_op", Unit: "us", Better: "lower"},
	{Name: "remoteclient.retries", Unit: "count", Better: "lower"},
	{Name: "remoteclient.point_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "remoteclient.point_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "remoteclient.browse_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "remoteclient.drill_p50_ms", Unit: "ms", Better: "lower"},
	// Process and the trace itself.
	{Name: "runtime.peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_ratio", Unit: "ratio", Better: "lower"},
	// Share of traced op time per layer (self time over op time).
	{Name: "trace.share_compile", Unit: "ratio", Better: "lower"},
	{Name: "trace.share_xqeval", Unit: "ratio", Better: "lower"},
	{Name: "trace.share_resultset", Unit: "ratio", Better: "lower"},
	{Name: "trace.share_aqualogic", Unit: "ratio", Better: "lower"},
	{Name: "trace.share_backend", Unit: "ratio", Better: "lower"},
	{Name: "trace.share_server_self", Unit: "ratio", Better: "lower"},
	{Name: "trace.share_client_transport", Unit: "ratio", Better: "lower"},
}

// benchmarkJSON renders the registration the driver reads.
func benchmarkJSON() []byte {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}
