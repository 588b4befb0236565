package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"whowas/internal/analysis"
	"whowas/internal/carto"
	"whowas/internal/cloudapi"
	"whowas/internal/cluster"
	"whowas/internal/core"
	"whowas/internal/ipaddr"
	"whowas/internal/store"
	"whowas/internal/store/colstore"
)

// The archive workload's shape. 20 rounds against colstore's default
// 2-round cache make the lookups' working set larger than the cache.
const (
	archiveRounds = 20
	archiveSetups = 3
	// minLookups gives the 95th percentile at least ten samples beyond
	// it.
	minLookups = 200
	// Of every four lookups three ask for an IP that was responsive at
	// least once (see lookupSet) and one for an IP of the cloud's ranges
	// that never was.
	hitsPerFour = 3
	minCycles   = 2
)

// roundInput is one collected round, kept as values so every cycle
// ingests fresh records.
type roundInput struct {
	meta store.RoundMeta
	recs []store.Record
}

func snapshotRounds(st *store.Store) ([]roundInput, int64) {
	var out []roundInput
	var n int64
	st.EachRound(func(r *store.Round) bool {
		in := roundInput{meta: store.RoundMeta{Index: r.Index, Day: r.Day, Probed: r.Probed, Degraded: r.Degraded}}
		for _, rec := range r.Records() {
			in.recs = append(in.recs, *rec)
		}
		n += int64(len(in.recs))
		out = append(out, in)
		return true
	})
	return out, n
}

// cycle holds the figures of one timed archive pass over a fresh
// colstore directory.
type cycle struct {
	ingest, analyze               time.Duration
	putBatch                      time.Duration
	endRounds                     []time.Duration
	carto, cluster, churn, census time.Duration
	sizePatterns                  time.Duration
	rt                            runtimeDelta
}

// runArchiveCycle ingests the input into a new colstore directory
// through the store frontend and runs the analyses over it. It returns
// the cycle's figures and the platform over the filled store, which the
// caller checks and closes.
func runArchiveCycle(ctx context.Context, cloud cloudapi.Cloud, input []roundInput, dir string, tr *tracedRun, chk *checker) (*cycle, *core.Platform, error) {
	b, err := colstore.Open(dir, colstore.Options{CloudName: cloud.Info().Name})
	if err != nil {
		return nil, nil, err
	}
	var backend store.Backend = b
	if tr != nil {
		tr.backend.Backend = b
		tr.cloud.Cloud = cloud
		backend, cloud = tr.backend, tr.cloud
	}
	p, err := core.NewPlatformCloud(cloud)
	if err != nil {
		return nil, nil, err
	}
	if err := p.UseStoreBackend(backend); err != nil {
		return nil, nil, err
	}
	if tr != nil {
		p.Metrics = tr.reg
		p.Store.SetMetrics(tr.reg)
		p.Tracer = tr.tracer
	}
	c := &cycle{}
	spans := tr.spansOrNil()
	// timed runs one call under a span, charging its time and its
	// runtime work to the cycle.
	timed := func(name string, fn func() error) time.Duration {
		done := spans.enter(name)
		before := readRuntime()
		start := time.Now()
		err := fn()
		d := time.Since(start)
		c.rt.add(before.to(readRuntime()))
		done()
		chk.op(err == nil, "%s: %v", name, err)
		return d
	}

	for _, in := range input {
		// The store takes the records it is given (the frontend stamps
		// them, colstore caches them and the analyses label them), so
		// every cycle ingests a fresh copy, made outside the timings.
		recs := append([]store.Record(nil), in.recs...)
		batch := make([]*store.Record, len(recs))
		for j := range recs {
			batch[j] = &recs[j]
		}
		c.ingest += timed("bench.ingest_round", func() error {
			if _, err := p.Store.BeginRound(in.meta.Day); err != nil {
				return err
			}
			t := time.Now()
			if err := p.Store.PutBatch(batch); err != nil {
				return err
			}
			c.putBatch += time.Since(t)
			p.Store.AddProbed(in.meta.Probed)
			if in.meta.Degraded {
				if err := p.Store.MarkDegraded(); err != nil {
					return err
				}
			}
			t = time.Now()
			err := p.Store.EndRound()
			c.endRounds = append(c.endRounds, time.Since(t))
			return err
		})
	}

	c.carto = timed("bench.carto", func() error { return p.RunCartography(ctx, carto.Config{}) })
	c.cluster = timed("bench.cluster", func() error { return p.RunClustering(cluster.Config{}) })
	c.churn = timed("analysis.churn", func() error { analysis.Churn(p.Store); return nil })
	c.census = timed("analysis.census", func() error { analysis.Census(p.Store); return nil })
	c.sizePatterns = timed("analysis.size_patterns", func() error {
		if p.Clusters == nil {
			return fmt.Errorf("no clustering result")
		}
		analysis.SizePatterns(p.Store, p.Clusters, cloud.Days())
		return nil
	})
	c.analyze = c.carto + c.cluster + c.churn + c.census + c.sizePatterns
	return c, p, nil
}

// lookupSet draws the seeded hit/miss mix of History lookups. A hit
// asks for the IP of a stored record picked uniformly, so an IP is
// asked about as often as it was seen responsive: long-lived
// deployments, the ones with the longest histories, dominate the mix.
type lookupSet struct {
	n      int // lookups drawn so far
	rng    *rand.Rand
	input  []roundInput
	ranges *ipaddr.RangeList
	seen   map[ipaddr.Addr]bool
}

func newLookupSet(seed int64, input []roundInput, ranges *ipaddr.RangeList) *lookupSet {
	seen := map[ipaddr.Addr]bool{}
	for _, in := range input {
		for _, rec := range in.recs {
			seen[rec.IP] = true
		}
	}
	return &lookupSet{rng: rand.New(rand.NewSource(seed)), input: input, ranges: ranges, seen: seen}
}

// next draws the next lookup. Hits and misses follow a fixed pattern,
// not a coin, so every run asks the same share of each.
func (l *lookupSet) next() (ipaddr.Addr, error) {
	l.n++
	if l.n%4 < hitsPerFour {
		for {
			in := l.input[l.rng.Intn(len(l.input))]
			if len(in.recs) > 0 {
				return in.recs[l.rng.Intn(len(in.recs))].IP, nil
			}
		}
	}
	for {
		ip, err := l.ranges.AtIndex(l.rng.Int63n(int64(l.ranges.Total())))
		if err != nil {
			return 0, err
		}
		if !l.seen[ip] {
			return ip, nil
		}
	}
}

// lookupQuery is one planned History lookup with the digest of the
// in-memory store's answer, which the columnar store's must match.
type lookupQuery struct {
	ip   ipaddr.Addr
	hit  bool
	want [sha256.Size]byte
}

// plannedLookups is how many lookups are drawn and answered from the
// in-memory store before the timed phase; a run that gets through them
// all starts over.
const plannedLookups = 2048

// planLookups draws the run's lookups and answers them from the
// in-memory reference store, so the store can be dropped before the
// timed phase and its copy of the data weighs on neither the heap
// figure nor the collector's work during the lookups.
func planLookups(seed int64, input []roundInput, ranges *ipaddr.RangeList, ref *core.Platform) ([]lookupQuery, error) {
	set := newLookupSet(seed, input, ranges)
	qs := make([]lookupQuery, plannedLookups)
	for i := range qs {
		ip, err := set.next()
		if err != nil {
			return nil, err
		}
		recs := ref.History(ip)
		qs[i] = lookupQuery{ip: ip, hit: len(recs) > 0, want: sha256.Sum256(encodeRecords(recs))}
	}
	return qs, nil
}

// encodeRecords is the canonical form History answers are compared in
// (the store's byte-identity contract is gob-byte-for-byte).
func encodeRecords(recs []*store.Record) []byte {
	flat := make([]store.Record, len(recs))
	for i, r := range recs {
		flat[i] = *r
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(flat); err != nil {
		return []byte("unencodable: " + err.Error())
	}
	return buf.Bytes()
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if filepath.Ext(e.Name()) == ".seg" {
			n += info.Size()
		}
	}
	return n, nil
}

// archiveSource is archive's input: a seeded campaign over the first
// archiveRounds rounds of the paper's schedule, collected into the
// in-memory store. The run and recordExpectation both build it here, so
// expected.json records what the run checks.
type archiveSource struct {
	platform *core.Platform
	digest   string
	records  int64
}

// collectArchiveSource builds the cloud and platform and collects the
// input; observer sees every round.
func collectArchiveSource(ctx context.Context, cloudCfg cloudapi.SimConfig, observer func(core.RoundReport)) (*archiveSource, error) {
	p, err := core.NewPlatform(cloudCfg)
	if err != nil {
		return nil, err
	}
	camp := core.FastCampaign()
	camp.RoundDays = core.DefaultRoundSchedule(cloudCfg.Days)[:archiveRounds]
	camp.Observer = observer
	if err := p.RunCampaign(ctx, camp); err != nil {
		return nil, fmt.Errorf("collecting the input: %w", err)
	}
	src := &archiveSource{platform: p}
	if src.digest, err = p.Store.Digest(); err != nil {
		return nil, err
	}
	for _, r := range p.RoundReports() {
		src.records += r.Records
	}
	return src, nil
}

// analyze runs cartography and clustering over the in-memory store, as
// every timed cycle does over colstore, and returns the analysed digest
// the cycles must reproduce.
func (s *archiveSource) analyze(ctx context.Context) (string, error) {
	if err := s.platform.RunCartography(ctx, carto.Config{}); err != nil {
		return "", err
	}
	if err := s.platform.RunClustering(cluster.Config{}); err != nil {
		return "", err
	}
	return s.platform.Store.Digest()
}

func runArchive(opt options, exp expectations) (*outcome, error) {
	cloudCfg := cloudapi.DefaultEC2Config(cloudScale, opt.seed)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var chk checker
	want, known := exp.lookup("archive", opt.seed)

	// Set-up: build the cloud and platform and collect the input. It
	// runs archiveSetups times, each collection replaying the first;
	// the repeats sit between the parts of the timed phase (below).
	var setups []time.Duration
	setup := func(ref *archiveSource) (*archiveSource, error) {
		start := time.Now()
		s, err := collectArchiveSource(ctx, cloudCfg, func(r core.RoundReport) {
			chk.op(!r.Degraded, "set-up round %d (day %d) degraded", r.Round, r.Day)
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		if ref != nil {
			chk.checkDigest("set-up collection vs the first", s.digest, ref.digest, s.records, ref.records)
		}
		return s, nil
	}
	src, err := setup(nil)
	if err != nil {
		return nil, err
	}
	first := archiveSource{digest: src.digest, records: src.records}
	records := src.records
	if known {
		chk.checkDigest("set-up collection vs expected.json", src.digest, want.Digest, records, want.Records)
	}
	input, inputRecords := snapshotRounds(src.platform.Store)
	chk.op(inputRecords == records, "input holds %d records, rounds reported %d", inputRecords, records)

	// The reference outputs come from the in-memory store: analysed
	// with the same calls, and its History answers.
	refAnalyzed, err := src.analyze(ctx)
	if err != nil {
		return nil, err
	}
	if known {
		chk.op(refAnalyzed == want.AnalyzedDigest, "analysed in-memory digest %s, want %s", refAnalyzed, want.AnalyzedDigest)
	}
	cloud := src.platform.Cloud
	queries, err := planLookups(opt.seed, input, cloud.Ranges(), src.platform)
	if err != nil {
		return nil, err
	}
	src = nil // the reference store is no longer needed

	var tr *tracedRun
	var lr layerRun
	if opt.trace {
		tr = newTracedRun()
		lr.tr = tr
	}
	// The heap figure is the growth of the live heap over what set-up
	// leaves live (the cloud, the input and the planned lookups), so it
	// measures what the timed phase's stores and analyses hold.
	runtime.GC()
	baseline := liveHeap()
	var peak uint64

	// Only the latest cycle's platform is kept: it is closed and its
	// directory removed before the next cycle or set-up starts, so one
	// cycle's stores and analysis results are live at a time.
	var last *core.Platform
	var lastDir string
	closeLast := func() error {
		if last == nil {
			return nil
		}
		err := last.Store.Close()
		last = nil
		if err != nil {
			return err
		}
		return os.RemoveAll(lastDir)
	}
	// lookup makes closed-loop History lookups, one client, in the
	// latest cycle's store until until() says stop; spans records them
	// after a traced cycle.
	var lat []time.Duration
	var hits int
	lookup := func(spans *spanRecorder, until func() bool) {
		runtime.GC()
		for !until() {
			q := queries[len(lat)%len(queries)]
			done := spans.enter("bench.history")
			start := time.Now()
			got := last.History(q.ip)
			lat = append(lat, time.Since(start))
			done()
			if q.hit {
				hits++
			}
			chk.op(sha256.Sum256(encodeRecords(got)) == q.want, "History(%s): colstore answer differs from in-memory", q.ip)
		}
	}
	profiled := func(traced bool, fn func() error) error {
		if traced {
			return tr.profile(fn)
		}
		return fn()
	}

	// The timed phase runs in archiveSetups parts, one after each
	// set-up, so its cycles and lookups, like the set-ups, sample the
	// whole run on a host whose speed drifts.
	part := time.Duration(opt.seconds) * time.Second / archiveSetups
	var plain, traced []*cycle
	i := 0
	for n := 0; n < archiveSetups; n++ {
		if n > 0 {
			if err := closeLast(); err != nil {
				return nil, err
			}
			if _, err := setup(&first); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		heap := startHeapPeak()
		partStart := time.Now()
		for ; ; i++ {
			if err := closeLast(); err != nil {
				return nil, err
			}
			dir := filepath.Join(opt.workDir, fmt.Sprintf("cycle-%d", i))
			useTrace := opt.trace && i%2 == 1
			var cyc *cycle
			runtime.GC() // every cycle starts from the same heap
			err := profiled(useTrace, func() error {
				var t *tracedRun
				if useTrace {
					t = tr
				}
				var err error
				cyc, last, err = runArchiveCycle(ctx, cloud, input, dir, t, &chk)
				return err
			})
			if err != nil {
				return nil, err
			}
			lastDir = dir
			// Output checks, outside the timings: the columnar store
			// holds what was collected, analysed exactly as in memory.
			sp := tr.spansOrNil().start(nil, "store.digest")
			d, err := last.Store.Digest()
			if useTrace {
				lr.digests = append(lr.digests, sp.end())
			}
			chk.op(err == nil, "digest: %v", err)
			chk.op(d == refAnalyzed, "cycle %d: analysed colstore digest %s, in-memory %s", i, d, refAnalyzed)
			var spans *spanRecorder
			if useTrace {
				traced = append(traced, cyc)
				spans = tr.spans
			} else {
				plain = append(plain, cyc)
			}
			// After every cycle, lookups run in its store for as long
			// as the cycle took.
			slice := time.Now().Add(cyc.ingest + cyc.analyze)
			if err := profiled(useTrace, func() error {
				lookup(spans, func() bool { return time.Now().After(slice) })
				return nil
			}); err != nil {
				return nil, err
			}
			if time.Since(partStart) < part {
				continue
			}
			if n < archiveSetups-1 {
				i++
				break
			}
			// The run ends on a traced cycle when traced, so its last
			// lookups run through the seams.
			if len(plain) >= minCycles && (!opt.trace || useTrace) {
				if err := profiled(useTrace, func() error {
					lookup(spans, func() bool { return len(lat) >= minLookups })
					return nil
				}); err != nil {
					return nil, err
				}
				break
			}
		}
		peak = max(peak, heap.Stop())
	}
	disk, err := dirBytes(lastDir)
	if err != nil {
		return nil, err
	}
	if err := closeLast(); err != nil {
		return nil, err
	}
	var growth uint64
	if peak > baseline {
		growth = peak - baseline
	}

	var rates []float64
	var rt runtimeDelta
	var items float64
	for _, c := range plain {
		rates = append(rates, float64(records)/(c.ingest+c.analyze).Seconds())
		rt.add(c.rt)
		items += float64(records)
	}
	var ingestRates, analyzeS []float64
	for _, c := range append(append([]*cycle(nil), plain...), traced...) {
		ingestRates = append(ingestRates, float64(records)/c.ingest.Seconds())
		analyzeS = append(analyzeS, c.analyze.Seconds())
	}
	out := &outcome{
		detail: map[string]any{
			"cycles":                len(plain) + len(traced),
			"rounds":                archiveRounds,
			"records":               records,
			"digest":                first.digest,
			"analyzed_digest":       refAnalyzed,
			"expected_known":        known,
			"lookups":               len(lat),
			"lookup_hits":           hits,
			"ingest_records_per_s":  medianFloat(ingestRates),
			"analyze_s":             medianFloat(analyzeS),
			"history_p50_us":        us(quantile(lat, 0.5)),
			"history_p95_us":        us(quantile(lat, 0.95)),
			"disk_bytes_per_record": ratio(float64(disk), float64(records)),
			"heap_baseline_mib":     float64(baseline) / (1 << 20),
			"heap_peak_mib":         float64(peak) / (1 << 20),
		},
	}
	if !opt.trace {
		out.metrics = map[string]metric{
			"setup_s":              {median(setups).Seconds(), "s"},
			"throughput_per_s":     {medianFloat(rates), "1/s"},
			"alloc_bytes_per_item": {ratio(float64(rt.allocBytes), items), "B"},
			"live_heap_peak_mib":   {float64(growth) / (1 << 20), "MiB"},
			"latency_p50_ms":       {ms(quantile(lat, 0.5)), "ms"},
			"latency_p95_ms":       {ms(quantile(lat, 0.95)), "ms"},
		}
	} else {
		acct := tr.accountFor()
		chk.op(acct == nil, "CPU accounting: %v", acct)
		var plainWalls, tracedWalls []time.Duration
		for _, c := range plain {
			plainWalls = append(plainWalls, c.ingest+c.analyze)
		}
		var putBatch time.Duration
		for _, c := range traced {
			tracedWalls = append(tracedWalls, c.ingest+c.analyze)
			lr.passes++
			lr.items += float64(records)
			lr.rt.add(c.rt)
			lr.endRounds = append(lr.endRounds, c.endRounds...)
			putBatch += c.putBatch
			lr.carto = append(lr.carto, c.carto)
			lr.cluster = append(lr.cluster, c.cluster)
			lr.churn = append(lr.churn, c.churn)
			lr.census = append(lr.census, c.census)
			lr.sizePatterns = append(lr.sizePatterns, c.sizePatterns)
			lr.analyze = append(lr.analyze, c.analyze)
		}
		lr.putBatchNSPerRecord = ratio(float64(putBatch.Nanoseconds()), lr.items)
		lr.ingestRecordsPerS = medianFloat(ingestRates)
		lr.diskPerRecord = ratio(float64(disk), float64(records))
		lr.overhead = ratio(float64(median(tracedWalls)), float64(median(plainWalls)))
		lr.errorRatio = ratio(float64(chk.failed), float64(chk.attempted))
		out.metrics, out.detail["self_ms"] = lr.metrics()
		out.detail["cpu_sampled_s"], out.detail["cpu_process_s"] = tr.sampledCPU.Seconds(), tr.processCPU.Seconds()
	}
	out.attempted, out.failed = chk.attempted, chk.failed
	out.detail["failures"] = chk.failures
	return out, nil
}
