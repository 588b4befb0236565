package main

import (
	"fmt"
	"sort"
	"time"

	"whowas/internal/core"
)

// layerRun gathers a traced run's raw measurements; metrics turns them
// into the per-layer metrics. Counts are per pass (one campaign, or one
// archive cycle) and ratios per item (a probed IP, or a stored record),
// so the figures do not depend on how many passes fit in the run.
type layerRun struct {
	tr     *tracedRun
	passes float64
	items  float64
	rt     runtimeDelta

	// Campaign passes.
	reports []core.RoundReport
	rounds  []time.Duration

	// Timings the benchmark takes around Store and analysis calls.
	digests, endRounds               []time.Duration
	putBatchNSPerRecord              float64
	ingestRecordsPerS, diskPerRecord float64
	carto, cluster, churn, census    []time.Duration
	sizePatterns, analyze            []time.Duration

	overhead, errorRatio float64
}

func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return ms(t) / float64(len(ds))
}

// metrics returns the per-layer metrics and, for the detail line, the
// self time of every layer the spans cover.
func (l *layerRun) metrics() (map[string]metric, map[string]float64) {
	snap := l.tr.reg.Snapshot()
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	stageS := func(name string) float64 { return snap.Stages[name].TotalMS / 1000 }
	histUS := func(name string) float64 { return snap.Histograms[name].P50MS * 1000 }
	perPass := func(v float64) float64 { return ratio(v, l.passes) }

	cloud, backend := l.tr.cloud, l.tr.backend
	cpu, alloc := l.tr.cpu, l.tr.alloc
	pages := c("fetcher.pages")
	probedIPs := c("scanner.probed_ips")

	var drain, total time.Duration
	for _, r := range l.reports {
		drain += r.Drain
		total += r.Total
	}
	// The store finalizes each round under a "store.finalize" span of
	// the program's; the campaigns' EndRound times come from those.
	spans := append(l.tr.journal.Drain(), l.tr.spans.drain()...)
	endRounds := l.endRounds
	for _, s := range spans {
		if s.Name == "store.finalize" {
			endRounds = append(endRounds, s.Duration())
		}
	}
	self := map[string]float64{}
	for layer, d := range selfTimes(spans) {
		self[layer] = ms(d)
	}

	v := map[string]float64{
		"cloudapi.set_day_ms":          meanMS(cloud.setDays.snapshot()),
		"cloudapi.dials":               perPass(float64(cloud.dials.Load())),
		"cloudapi.dials_per_ip":        ratio(float64(cloud.dials.Load()), probedIPs),
		"cloudapi.dial_us_p50":         us(median(cloud.dialTimes.snapshot())),
		"cloudapi.read_calls_per_page": ratio(float64(cloud.reads.Load()), pages),
		"cloudapi.bytes_read_per_page": ratio(float64(cloud.readBytes.Load()), pages),
		"netsim.cpu_share":             cpu.of("netsim"),
		"websim.cpu_share":             cpu.of("websim"),
		"cloudsim.cpu_share":           cpu.of("cloudsim"),
		"faults.cpu_share":             cpu.of("faults"),
		"cloud.cpu_share":              cpu.side("cloud"),
		"cloud.alloc_share":            alloc.side("cloud"),

		"scanner.probes_per_ip":         ratio(c("scanner.probes"), probedIPs),
		"scanner.retries":               perPass(c("scanner.retries")),
		"scanner.responsive_ratio":      ratio(c("scanner.responsive_ips"), probedIPs),
		"scanner.probe_latency_us_p50":  histUS("scanner.probe_latency"),
		"scanner.cpu_share":             cpu.of("scanner"),
		"scanner.alloc_share":           alloc.of("scanner"),
		"fetcher.gets_per_page":         ratio(c("fetcher.gets"), pages),
		"fetcher.retries":               perPass(c("fetcher.retries")),
		"fetcher.transport_error_ratio": ratio(c("fetcher.transport_errors"), c("fetcher.gets")),
		"fetcher.get_latency_us_p50":    histUS("fetcher.get_latency"),
		"fetcher.cpu_share":             cpu.of("fetcher", bucketTLSPlatform),
		"fetcher.alloc_share":           alloc.of("fetcher", bucketTLSPlatform),
		"features.cpu_share":            cpu.of("features", "htmlparse", "simhash"),
		"features.alloc_share":          alloc.of("features", "htmlparse", "simhash"),
		"pipeline.scan_busy_s":          perPass(stageS("pipeline.scan")),
		"pipeline.fetch_busy_s":         perPass(stageS("pipeline.fetch")),
		"pipeline.featurize_busy_s":     perPass(stageS("pipeline.featurize")),
		"core.round_ms_p50":             ms(median(l.rounds)),
		"core.drain_share":              ratio(float64(drain), float64(total)),
		"core.cpu_share":                cpu.of("core", "pipeline"),

		"store.append_ms":               meanMS(backend.appends.snapshot()),
		"store.records_calls":           perPass(float64(len(backend.records.snapshot()))),
		"store.records_ms":              meanMS(backend.records.snapshot()),
		"store.history_backend_us_p50":  us(median(backend.histories.snapshot())),
		"store.rewrite_ms":              meanMS(backend.rewrites.snapshot()),
		"store.put_batch_ns_per_record": l.putBatchNSPerRecord,
		"store.end_round_ms":            meanMS(endRounds),
		"store.digest_ms":               meanMS(l.digests),
		"store.ingest_records_per_s":    l.ingestRecordsPerS,
		"store.disk_bytes_per_record":   l.diskPerRecord,
		"store.cpu_share":               cpu.of("store", "atomicfile"),
		"store.alloc_share":             alloc.of("store", "atomicfile"),
		"carto.sweep_ms":                meanMS(l.carto),
		"carto.dns_queries":             perPass(c("carto.dns_queries")),
		"cluster.run_ms":                meanMS(l.cluster),
		"cluster.records_in":            perPass(c("cluster.records_in")),
		"cluster.merges":                perPass(c("cluster.merges")),
		"cluster.cpu_share":             cpu.of("cluster"),
		"analysis.churn_ms":             meanMS(l.churn),
		"analysis.census_ms":            meanMS(l.census),
		"analysis.size_patterns_ms":     meanMS(l.sizePatterns),
		"analysis.analyze_s":            meanMS(l.analyze) / 1000,
		"platform.cpu_share":            cpu.side("platform"),
		"platform.alloc_share":          alloc.side("platform"),

		"runtime.cpu_share":        cpu.side("runtime"),
		"runtime.gc_cpu_fraction":  ratio(l.rt.gcCPU, l.rt.busyCPU),
		"runtime.allocs_per_item":  ratio(float64(l.rt.allocObjects), l.items),
		"runtime.cpu_ms_per_kitem": ratio(ms(l.rt.procCPU), l.items/1000),
		"runtime.gc_cycles":        perPass(float64(l.rt.gcCycles)),
		"harness.cpu_share":        cpu.side("harness"),
		"trace.overhead_ratio":     l.overhead,
		"error_ratio":              l.errorRatio,
	}
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = metric{Value: v[d.Name], Unit: d.Unit}
	}
	return out, self
}

// cpuAccountTolerance is how far the CPU time a traced run's profile
// samples stand for may stray from the CPU time the kernel charged the
// process over the profiled passes.
const cpuAccountTolerance = 0.1

// accountFor checks that the CPU profile accounts for the traced run's
// work: its samples times the sampling period match the process's CPU
// time over the profiled passes, and every sample landed on one of the
// four sides.
func (tr *tracedRun) accountFor() error {
	return accountFor(tr.cpu, tr.sampledCPU, tr.processCPU)
}

func accountFor(s shares, sampled, process time.Duration) error {
	if s.total() == 0 || process <= 0 {
		return fmt.Errorf("CPU profile has %d samples over %v of process CPU", s.total(), process)
	}
	if r := float64(sampled) / float64(process); r < 1-cpuAccountTolerance || r > 1+cpuAccountTolerance {
		return fmt.Errorf("CPU profile samples stand for %v, the process used %v", sampled, process)
	}
	sum := s.side("cloud") + s.side("platform") + s.side("runtime") + s.side("harness")
	if sum < 0.999999 || sum > 1.000001 {
		var unknown []string
		for b := range s {
			if sideOf(b) == "" {
				unknown = append(unknown, b)
			}
		}
		sort.Strings(unknown)
		return fmt.Errorf("CPU shares of the four sides add up to %v; buckets on no side: %v", sum, unknown)
	}
	return nil
}
