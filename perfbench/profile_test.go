package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"whowas/internal/trace"
)

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"module frame", []string{"runtime.mallocgc", "whowas/internal/scanner.(*Scanner).probe", "whowas/internal/core.(*campaign).runRound"}, "scanner"},
		{"innermost module wins", []string{"whowas/internal/simhash.Hash", "whowas/internal/features.FromPage", "whowas/internal/pipeline.run"}, "simhash"},
		{"subpackage is its module", []string{"whowas/internal/store/colstore.decodeSegment", "whowas/internal/store.(*Store).History"}, "store"},
		{"server-side TLS", []string{"crypto/aes.encryptBlock", "crypto/tls.(*Conn).Write", "whowas/internal/netsim.(*Network).serveHTTP"}, bucketTLSCloud},
		{"client-side TLS", []string{"crypto/tls.(*Conn).Handshake", "net/http.(*Transport).roundTrip", "whowas/internal/fetcher.(*Fetcher).get"}, bucketTLSPlatform},
		{"transport goroutine", []string{"bufio.(*Reader).Peek", "net/http.(*persistConn).readLoop", "runtime.goexit"}, "fetcher"},
		{"transport TLS dial", []string{"crypto/tls.(*Conn).clientHandshake", "net/http.(*persistConn).addTLS", "net/http.(*Transport).dialConnFor"}, bucketTLSPlatform},
		{"GC worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketRuntime},
		{"GC assist under a module", []string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "whowas/internal/fetcher.(*Fetcher).get"}, bucketRuntime},
		{"scheduler", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, bucketRuntime},
		{"harness leaf", []string{"runtime.growslice", "main.benchSpan.end", "main.(*meteredCloud).DialContext", "whowas/internal/scanner.(*Scanner).probe"}, bucketHarness},
		{"seam passes through", []string{"net.(*pipe).Read", "main.(*meteredConn).Read", "crypto/tls.(*Conn).readRecord", "whowas/internal/fetcher.(*Fetcher).get"}, bucketTLSPlatform},
		{"harness only", []string{"encoding/gob.(*Encoder).Encode", "main.encodeRecords", "main.runArchive"}, bucketHarness},
		{"test binary harness", []string{"whowas/perfbench.benchSpan.end", "whowas/internal/scanner.(*Scanner).probe"}, bucketHarness},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("%s: attribute = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestMain(m *testing.M) {
	// Tests run in the perfbench directory, one level under the
	// checkout root the benchmark runs from.
	if err := loadModules("../internal"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func TestSides(t *testing.T) {
	s := shares{"netsim": 3, bucketTLSCloud: 1, "fetcher": 2, bucketTLSPlatform: 1, "store": 1, bucketRuntime: 1, bucketHarness: 1}
	for side, want := range map[string]float64{"cloud": 0.4, "platform": 0.4, "runtime": 0.1, "harness": 0.1} {
		if got := s.side(side); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("side %s = %v, want %v", side, got, want)
		}
	}
	if sideOf("nosuchmodule") != "" {
		t.Error("a bucket naming no module of the program was given a side")
	}
}

func TestAccountFor(t *testing.T) {
	good := shares{"netsim": 3, bucketTLSCloud: 1, "fetcher": 2, bucketTLSPlatform: 1, "store": 1, bucketRuntime: 1, bucketHarness: 1}
	sec := time.Second
	for _, tc := range []struct {
		name             string
		s                shares
		sampled, process time.Duration
		ok               bool
	}{
		{"matching", good, sec, sec, true},
		{"within tolerance", good, 95 * sec / 100, sec, true},
		{"samples lost", good, sec / 2, sec, false},
		{"samples double-counted", good, 2 * sec, sec, false},
		{"empty profile", shares{}, 0, sec, false},
		{"no process CPU", good, sec, 0, false},
		{"bucket on no side", shares{"fetcher": 9, "nosuchmodule": 1}, sec, sec, false},
	} {
		if err := accountFor(tc.s, tc.sampled, tc.process); (err == nil) != tc.ok {
			t.Errorf("%s: accountFor = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestCPUProfileParses round-trips a real CPU profile through the
// reader: every sample lands in a bucket, and the samples account for
// the CPU the process used meanwhile.
func TestCPUProfileParses(t *testing.T) {
	var buf bytes.Buffer
	before := processCPU()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	deadline := time.Now().Add(time.Second)
	x := 0
	for time.Now().Before(deadline) {
		x += len(encodeRecords(nil))
	}
	pprof.StopCPUProfile()
	process := processCPU() - before
	s, sampled, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if s.total() == 0 {
		t.Fatalf("no samples parsed (%d bytes of profile, work %d)", buf.Len(), x)
	}
	if err := accountFor(s, sampled, process); err != nil {
		t.Fatalf("shares %v: %v", s, err)
	}
	if s[bucketHarness] == 0 {
		t.Fatalf("the test's own loop was not attributed to the harness: %v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []trace.SpanSnapshot{
		{ID: 1, Name: "probe", StartNS: 0, DurNS: 100},
		{ID: 2, Parent: 1, Name: "cloudapi.dial", StartNS: 10, DurNS: 30},
		{ID: 3, Parent: 1, Name: "cloudapi.dial", StartNS: 30, DurNS: 30}, // overlaps the first
		{ID: 4, Parent: 1, Name: "cloudapi.dial", StartNS: 90, DurNS: 50}, // runs past the parent
	}
	got := selfTimes(spans)
	// The children cover [10,60) and [90,100) of the probe.
	if got["scanner"] != 40 {
		t.Errorf("scanner self time %v, want 40ns", got["scanner"])
	}
	if got["cloudapi"] != 110 {
		t.Errorf("cloudapi self time %v, want 110ns", got["cloudapi"])
	}
}
