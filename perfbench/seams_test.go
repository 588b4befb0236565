package main

import (
	"context"
	"testing"

	"whowas/internal/cloudapi"
	"whowas/internal/core"
	"whowas/internal/store"
	"whowas/internal/store/colstore"
	"whowas/internal/trace"
)

// testCampaign is a short collect campaign: two rounds of the collect
// workload's cloud.
func testCampaign(t *testing.T) (cloudapi.SimConfig, core.CampaignConfig) {
	t.Helper()
	cfg := cloudapi.DefaultEC2Config(cloudScale, 7)
	camp, err := collectPlain.campaignConfig(7, cfg.Days)
	if err != nil {
		t.Fatal(err)
	}
	camp.RoundDays = camp.RoundDays[:2]
	return cfg, camp
}

// collectDigest runs the campaign over the in-process cloud, through
// the cloud seam when wrap is set, and returns the store digest.
func collectDigest(t *testing.T, cfg cloudapi.SimConfig, camp core.CampaignConfig, wrap bool) (string, *meteredCloud) {
	t.Helper()
	inner, err := cloudapi.NewInProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cloud cloudapi.Cloud = inner
	var mc *meteredCloud
	if wrap {
		mc = newMeteredCloud(inner, newSpanRecorder(trace.New(trace.Config{})))
		cloud = mc
	}
	p, err := core.NewPlatformCloud(cloud)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunCampaign(context.Background(), camp); err != nil {
		t.Fatal(err)
	}
	d, err := p.Store.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d, mc
}

func TestCloudSeamIsTransparent(t *testing.T) {
	cfg, camp := testCampaign(t)
	plain, _ := collectDigest(t, cfg, camp, false)
	wrapped, mc := collectDigest(t, cfg, camp, true)
	if plain != wrapped {
		t.Fatalf("digest through the cloud seam %s, without %s", wrapped, plain)
	}
	if mc.dials.Load() == 0 || mc.reads.Load() == 0 || mc.readBytes.Load() == 0 {
		t.Fatalf("seam counted dials=%d reads=%d bytes=%d", mc.dials.Load(), mc.reads.Load(), mc.readBytes.Load())
	}
	if n := len(mc.setDays.snapshot()); n != len(camp.RoundDays) {
		t.Fatalf("seam timed %d SetDay calls, campaign has %d rounds", n, len(camp.RoundDays))
	}
	if cloudapi.Sim(mc) == nil || cloudapi.FeedsOf(mc) == nil {
		t.Fatal("Sim/FeedsOf do not see through the seam")
	}
}

// backendDigest runs the campaign into a store over the given backend,
// optionally through the backend seam and with tracing on.
func backendDigest(t *testing.T, cfg cloudapi.SimConfig, camp core.CampaignConfig, b store.Backend, wrap, traced bool) string {
	t.Helper()
	p, err := core.NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var spans *spanRecorder
	if traced {
		p.Tracer = trace.New(trace.Config{})
		spans = newSpanRecorder(p.Tracer)
	}
	if wrap {
		b = newMeteredBackend(b, spans)
	}
	if err := p.UseStoreBackend(b); err != nil {
		t.Fatal(err)
	}
	if err := p.RunCampaign(context.Background(), camp); err != nil {
		t.Fatal(err)
	}
	d, err := p.Store.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Store.Close(); err != nil {
		t.Fatal(err)
	}
	if traced && wrap && len(spans.drain()) == 0 {
		t.Fatal("traced backend seam recorded no spans")
	}
	return d
}

func TestBackendSeamIsTransparent(t *testing.T) {
	cfg, camp := testCampaign(t)
	want := backendDigest(t, cfg, camp, store.NewMemoryBackend(), false, false)
	for _, tc := range []struct {
		name         string
		col          bool
		wrap, traced bool
	}{
		{"memory/seam", false, true, false},
		{"memory/seam/traced", false, true, true},
		{"colstore", true, false, false},
		{"colstore/seam", true, true, false},
		{"colstore/seam/traced", true, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b store.Backend = store.NewMemoryBackend()
			if tc.col {
				cb, err := colstore.Open(t.TempDir(), colstore.Options{CloudName: cfg.Name})
				if err != nil {
					t.Fatal(err)
				}
				b = cb
			}
			if got := backendDigest(t, cfg, camp, b, tc.wrap, tc.traced); got != want {
				t.Fatalf("digest %s, plain in-memory %s", got, want)
			}
		})
	}
}
