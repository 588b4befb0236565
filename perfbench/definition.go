package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// metricDef declares one metric of the benchmark definition. Bound is
// set on end-to-end metrics only: the share of the parent's median by
// which the metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// workload is one named input set of the benchmark.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(options, expectations) (*outcome, error)
}

// The end-to-end metrics are reported by every workload. Each names one
// role; what fills the role is the workload's unit of work (README.md):
// a probed IP for collect and collect_lossy, a stored record for
// archive. The wall-time figures get the widest bound: on a shared
// 2-CPU host, runs of one seed back to back differed by up to a fifth
// in throughput while their allocation figures agreed to 0.1%.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: bound(0.25)},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: bound(0.25)},
	{Name: "alloc_bytes_per_item", Unit: "B", Better: "lower", Bound: bound(0.15)},
	{Name: "live_heap_peak_mib", Unit: "MiB", Better: "lower", Bound: bound(0.2)},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: bound(0.25)},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: bound(0.25)},
}

// The per-layer metrics of the traced run, named by module. A layer
// that does no work on a workload reports 0 there.
var perLayer = []metricDef{
	// Cloud side: the simulated infrastructure.
	{Name: "cloudapi.set_day_ms", Unit: "ms", Better: "lower"},
	{Name: "cloudapi.dials", Unit: "count", Better: "lower"},
	{Name: "cloudapi.dials_per_ip", Unit: "count", Better: "lower"},
	{Name: "cloudapi.dial_us_p50", Unit: "us", Better: "lower"},
	{Name: "cloudapi.read_calls_per_page", Unit: "count", Better: "lower"},
	{Name: "cloudapi.bytes_read_per_page", Unit: "B", Better: "lower"},
	{Name: "netsim.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "websim.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "cloudsim.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "faults.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "cloud.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "cloud.alloc_share", Unit: "ratio", Better: "lower"},

	// Platform side: the measurement system.
	{Name: "scanner.probes_per_ip", Unit: "count", Better: "lower"},
	{Name: "scanner.retries", Unit: "count", Better: "lower"},
	{Name: "scanner.responsive_ratio", Unit: "ratio", Better: "higher"},
	{Name: "scanner.probe_latency_us_p50", Unit: "us", Better: "lower"},
	{Name: "scanner.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "scanner.alloc_share", Unit: "ratio", Better: "lower"},
	{Name: "fetcher.gets_per_page", Unit: "count", Better: "lower"},
	{Name: "fetcher.retries", Unit: "count", Better: "lower"},
	{Name: "fetcher.transport_error_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fetcher.get_latency_us_p50", Unit: "us", Better: "lower"},
	{Name: "fetcher.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "fetcher.alloc_share", Unit: "ratio", Better: "lower"},
	{Name: "features.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "features.alloc_share", Unit: "ratio", Better: "lower"},
	{Name: "pipeline.scan_busy_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.fetch_busy_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.featurize_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.round_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.drain_share", Unit: "ratio", Better: "lower"},
	{Name: "core.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "store.append_ms", Unit: "ms", Better: "lower"},
	{Name: "store.records_calls", Unit: "count", Better: "lower"},
	{Name: "store.records_ms", Unit: "ms", Better: "lower"},
	{Name: "store.history_backend_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.rewrite_ms", Unit: "ms", Better: "lower"},
	{Name: "store.put_batch_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "store.end_round_ms", Unit: "ms", Better: "lower"},
	{Name: "store.digest_ms", Unit: "ms", Better: "lower"},
	{Name: "store.ingest_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "store.disk_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "store.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "store.alloc_share", Unit: "ratio", Better: "lower"},
	{Name: "carto.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "carto.dns_queries", Unit: "count", Better: "lower"},
	{Name: "cluster.run_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.records_in", Unit: "count", Better: "lower"},
	{Name: "cluster.merges", Unit: "count", Better: "lower"},
	{Name: "cluster.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "analysis.churn_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.census_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.size_patterns_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.analyze_s", Unit: "s", Better: "lower"},
	{Name: "platform.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "platform.alloc_share", Unit: "ratio", Better: "lower"},

	// Go runtime and the benchmark's own cost.
	{Name: "runtime.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cpu_fraction", Unit: "ratio", Better: "lower"},
	{Name: "runtime.allocs_per_item", Unit: "count", Better: "lower"},
	{Name: "runtime.cpu_ms_per_kitem", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "harness.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "error_ratio", Unit: "ratio", Better: "lower"},
}

// runSeconds is how long one run's timed phase measures.
const runSeconds = 18

// workloads is the benchmark's workload registry.
var workloads = map[string]workload{
	"collect": {
		Name: "collect",
		Why:  "the paper's round on a fault-free EC2-like cloud: cloud-side serving, scanner, fetcher and features do the work, the store almost none",
		run:  runCollect(collectPlain),
	},
	"collect_lossy": {
		Name: "collect_lossy",
		Why:  "the same cloud behind dial loss, resets and truncation with 3 attempts: per-attempt timers, contexts and the retry path dominate",
		run:  runCollect(collectLossy),
	},
	"archive": {
		Name: "archive",
		Why:  "colstore ingest, cartography, clustering, analyses and History lookups over 20 collected rounds: store and analysis layers, no scanning",
		run:  runArchive,
	},
}

// workloadOrder fixes the order workloads appear in BENCHMARK.json.
var workloadOrder = []string{"collect", "collect_lossy", "archive"}

// definition is BENCHMARK.json.
type definition struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func buildDefinition() definition {
	d := definition{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, name := range workloadOrder {
		d.Workloads = append(d.Workloads, workloads[name])
	}
	return d
}

// marshalDefinition renders BENCHMARK.json byte for byte.
func marshalDefinition() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(buildDefinition()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeDefinition(path string) error {
	b, err := marshalDefinition()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing definition: %w", err)
	}
	return nil
}
