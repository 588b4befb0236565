package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"time"

	"whowas/internal/cloudapi"
	"whowas/internal/core"
	"whowas/internal/faults"
	"whowas/internal/metrics"
	"whowas/internal/store"
	"whowas/internal/trace"
)

// cloudScale divides the stock EC2-like cloud; at 1024 the cloud sits
// at its floor of 16,384 probed IPs per round.
const cloudScale = 1024

// collectSpec is one campaign workload. A run repeats a campaign of a
// fixed prefix of the paper's round schedule, each over a freshly built
// cloud and platform, until the timed phase is over.
type collectSpec struct {
	name   string
	rounds int
	lossy  bool
}

var (
	collectPlain = collectSpec{name: "collect", rounds: 4}
	collectLossy = collectSpec{name: "collect_lossy", rounds: 2, lossy: true}
)

// lossyScenario is collect_lossy's fault scenario; its seed is the
// benchmark seed.
//
//go:embed lossy.json
var lossyScenario []byte

// campaignConfig builds the campaign a spec runs. The lossy pipeline
// retries like the chaos suite's: 3 scan and fetch attempts with a
// near-zero backoff, and keep-alives off so every GET is one dial and
// runs replay byte for byte.
func (s collectSpec) campaignConfig(seed int64, days int) (core.CampaignConfig, error) {
	camp := core.FastCampaign()
	camp.RoundDays = core.DefaultRoundSchedule(days)[:s.rounds]
	if !s.lossy {
		return camp, nil
	}
	var sc faults.Scenario
	if err := json.Unmarshal(lossyScenario, &sc); err != nil {
		return camp, fmt.Errorf("lossy.json: %w", err)
	}
	sc.Seed = seed
	if err := sc.Validate(); err != nil {
		return camp, err
	}
	camp.Faults = &sc
	camp.Scanner.Attempts = 3
	camp.Scanner.RetryBackoff = time.Microsecond
	camp.Fetcher.Attempts = 3
	camp.Fetcher.RetryBackoff = time.Microsecond
	camp.Fetcher.DisableKeepAlives = true
	return camp, nil
}

// campaignRun is one campaign's measurements.
type campaignRun struct {
	setup, wall, digestTime time.Duration
	heapPeak                uint64          // live heap peak while the campaign ran
	rounds                  []time.Duration // Observer-bounded round wall times
	reports                 []core.RoundReport
	probed, records         int64
	digest                  string
	rt                      runtimeDelta
	err                     error
}

// tracedRun carries what traced passes add: the seams, the platform
// tracer with its in-memory journal, the benchmark's spans, one
// registry the passes share, and the profiles' attributed samples.
type tracedRun struct {
	tracer  *trace.Tracer
	journal *trace.Buffer
	spans   *spanRecorder
	cloud   *meteredCloud
	backend *meteredBackend
	reg     *metrics.Registry
	cpu     shares
	alloc   shares
	// sampledCPU is the CPU time the profiles' samples stand for and
	// processCPU what the kernel charged the process over the same
	// passes; accountFor compares them.
	sampledCPU, processCPU time.Duration
}

func newTracedRun() *tracedRun {
	journal := trace.NewBuffer(1 << 18)
	tracer := trace.New(trace.Config{Journal: journal})
	spans := newSpanRecorder(tracer)
	return &tracedRun{
		tracer:  tracer,
		journal: journal,
		spans:   spans,
		cloud:   newMeteredCloud(nil, spans),
		backend: newMeteredBackend(nil, spans),
		reg:     metrics.NewRegistry(),
		cpu:     shares{},
		alloc:   shares{},
	}
}

// profile runs fn under the CPU profiler and the heap profile's
// accounting, adding the attributed samples to tr.
func (tr *tracedRun) profile(fn func() error) error {
	allocBefore := allocShares()
	var prof bytes.Buffer
	cpuBefore := processCPU()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	fnErr := fn()
	pprof.StopCPUProfile()
	tr.processCPU += processCPU() - cpuBefore
	tr.alloc.add(allocShares().diff(allocBefore))
	cpu, sampled, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	tr.cpu.add(cpu)
	tr.sampledCPU += sampled
	return fnErr
}

func (tr *tracedRun) spansOrNil() *spanRecorder {
	if tr == nil {
		return nil
	}
	return tr.spans
}

// runCampaign builds a cloud and platform (the set-up) and runs one
// campaign over them. With tr non-nil the campaign runs traced and
// profiled, its counts accumulating in tr.
func runCampaign(ctx context.Context, cloudCfg cloudapi.SimConfig, camp core.CampaignConfig, tr *tracedRun) campaignRun {
	var out campaignRun
	start := time.Now()
	inner, err := cloudapi.NewInProcess(cloudCfg)
	if err != nil {
		out.err = err
		return out
	}
	var cloud cloudapi.Cloud = inner
	if tr != nil {
		tr.cloud.Cloud = inner
		cloud = tr.cloud
	}
	p, err := core.NewPlatformCloud(cloud)
	if err != nil {
		out.err = err
		return out
	}
	if tr != nil {
		tr.backend.Backend = store.NewMemoryBackend()
		if err := p.UseStoreBackend(tr.backend); err != nil {
			out.err = err
			return out
		}
		p.Metrics = tr.reg
		p.Store.SetMetrics(tr.reg)
		p.Tracer = tr.tracer
	}
	out.setup = time.Since(start)

	var closeRound func()
	if tr != nil {
		closeRound = tr.spans.enter("bench.round")
	}
	last := time.Now()
	camp.Observer = func(r core.RoundReport) {
		now := time.Now()
		out.rounds = append(out.rounds, now.Sub(last))
		out.reports = append(out.reports, r)
		last = now
		if closeRound != nil {
			closeRound()
			closeRound = nil
			if len(out.reports) < len(camp.RoundDays) {
				closeRound = tr.spans.enter("bench.round")
			}
		}
	}

	collect := func() error {
		heap := startHeapPeak()
		before := readRuntime()
		start := time.Now()
		last = start
		err := p.RunCampaign(ctx, camp)
		out.wall = time.Since(start)
		out.rt = before.to(readRuntime())
		out.heapPeak = heap.Stop()
		return err
	}
	if tr == nil {
		out.err = collect()
	} else {
		out.err = tr.profile(collect)
		if closeRound != nil {
			closeRound()
		}
	}
	for _, r := range out.reports {
		out.probed += r.Probed
		out.records += r.Records
	}
	if out.err != nil {
		return out
	}
	sp := tr.spansOrNil().start(nil, "store.digest")
	out.digest, out.err = p.Store.Digest()
	out.digestTime = sp.end()
	return out
}

// runCollect returns the run function of a campaign workload.
func runCollect(spec collectSpec) func(options, expectations) (*outcome, error) {
	return func(opt options, exp expectations) (*outcome, error) {
		cloudCfg := cloudapi.DefaultEC2Config(cloudScale, opt.seed)
		camp, err := spec.campaignConfig(opt.seed, cloudCfg.Days)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
		defer cancel()

		var chk checker
		want, known := exp.lookup(spec.name, opt.seed)
		var ref *campaignRun
		check := func(r campaignRun) {
			for _, rep := range r.reports {
				chk.op(!rep.Degraded, "round %d (day %d) degraded", rep.Round, rep.Day)
			}
			if r.err != nil {
				chk.op(false, "campaign: %v", r.err)
				for i := len(r.reports); i < spec.rounds; i++ {
					chk.op(false, "round %d not run", i)
				}
				return
			}
			if ref == nil {
				ref = &r
			}
			if known {
				chk.checkDigest("campaign vs expected.json", r.digest, want.Digest, r.records, want.Records)
			}
			chk.checkDigest("campaign vs the run's first campaign", r.digest, ref.digest, r.records, ref.records)
		}

		// Warm-up: one round, so one-time initialisation is not timed.
		warm := camp
		warm.RoundDays = camp.RoundDays[:1]
		w := runCampaign(ctx, cloudCfg, warm, nil)
		if w.err != nil {
			return nil, fmt.Errorf("warm-up: %w", w.err)
		}
		setups := []time.Duration{w.setup}

		var plain, traced []campaignRun
		var tr *tracedRun
		if opt.trace {
			tr = newTracedRun()
		}
		deadline := time.Now().Add(time.Duration(opt.seconds) * time.Second)
		for i := 0; ; i++ {
			// The traced run alternates untraced and traced campaigns;
			// their wall times give the tracing overhead.
			var r campaignRun
			if opt.trace && i%2 == 1 {
				r = runCampaign(ctx, cloudCfg, camp, tr)
				traced = append(traced, r)
			} else {
				r = runCampaign(ctx, cloudCfg, camp, nil)
				plain = append(plain, r)
			}
			setups = append(setups, r.setup)
			check(r)
			if r.err != nil {
				break
			}
			enough := len(plain) >= 2 && (!opt.trace || len(traced) >= 1)
			if enough && time.Now().After(deadline) {
				break
			}
		}
		var rates, peaks []float64
		var rounds []time.Duration
		var rt runtimeDelta
		var probed int64
		for _, r := range plain {
			rates = append(rates, float64(r.probed)/r.wall.Seconds())
			peaks = append(peaks, float64(r.heapPeak)/(1<<20))
			rounds = append(rounds, r.rounds...)
			rt.add(r.rt)
			probed += r.probed
		}
		out := &outcome{
			detail: map[string]any{
				"campaigns":          len(plain) + len(traced),
				"rounds_per_run":     spec.rounds,
				"round_samples":      len(rounds),
				"ips_per_s":          medianFloat(rates),
				"alloc_bytes_per_ip": ratio(float64(rt.allocBytes), float64(probed)),
				"expected_known":     known,
				"digest":             ref.digestOrEmpty(),
				"records":            ref.recordsOrZero(),
			},
		}
		if !opt.trace {
			out.metrics = map[string]metric{
				"setup_s":              {median(setups).Seconds(), "s"},
				"throughput_per_s":     {medianFloat(rates), "1/s"},
				"alloc_bytes_per_item": {ratio(float64(rt.allocBytes), float64(probed)), "B"},
				"live_heap_peak_mib":   {medianFloat(peaks), "MiB"},
				"latency_p50_ms":       {ms(quantile(rounds, 0.5)), "ms"},
				"latency_p95_ms":       {ms(quantile(rounds, 0.95)), "ms"},
			}
			out.attempted, out.failed = chk.attempted, chk.failed
			out.detail["failures"] = chk.failures
			return out, nil
		}

		acct := tr.accountFor()
		chk.op(acct == nil, "CPU accounting: %v", acct)
		l := layerRun{tr: tr, errorRatio: ratio(float64(chk.failed), float64(chk.attempted))}
		var plainWalls, tracedWalls []time.Duration
		for _, r := range plain {
			plainWalls = append(plainWalls, r.wall)
		}
		for _, r := range traced {
			tracedWalls = append(tracedWalls, r.wall)
			l.passes++
			l.items += float64(r.probed)
			l.rt.add(r.rt)
			l.reports = append(l.reports, r.reports...)
			l.rounds = append(l.rounds, r.rounds...)
			l.digests = append(l.digests, r.digestTime)
		}
		l.overhead = ratio(float64(median(tracedWalls)), float64(median(plainWalls)))
		out.metrics, out.detail["self_ms"] = l.metrics()
		out.detail["cpu_sampled_s"], out.detail["cpu_process_s"] = tr.sampledCPU.Seconds(), tr.processCPU.Seconds()
		out.attempted, out.failed = chk.attempted, chk.failed
		out.detail["failures"] = chk.failures
		return out, nil
	}
}

func (r *campaignRun) digestOrEmpty() string {
	if r == nil {
		return ""
	}
	return r.digest
}

func (r *campaignRun) recordsOrZero() int64 {
	if r == nil {
		return 0
	}
	return r.records
}
