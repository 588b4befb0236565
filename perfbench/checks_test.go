package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestTamperedExpectationFails runs the collect workload against an
// expected.json record whose digest and record count are wrong: the
// run must count the mismatches as failed operations.
func TestTamperedExpectationFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	const seed = 3
	x, err := recordExpectation("collect", seed)
	if err != nil {
		t.Fatal(err)
	}
	opt := options{workload: "collect", seed: seed, seconds: 1, workDir: t.TempDir()}
	good := expectations{"collect": {"3": x}}
	out, err := runCollect(collectPlain)(opt, good)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("true expectation: %d of %d operations failed: %v", out.failed, out.attempted, out.detail["failures"])
	}

	tampered := x
	tampered.Digest = strings.Repeat("0", len(x.Digest))
	tampered.Records++
	out, err = runCollect(collectPlain)(opt, expectations{"collect": {"3": tampered}})
	if err != nil {
		t.Fatal(err)
	}
	campaigns := out.detail["campaigns"].(int)
	if want := int64(2 * campaigns); out.failed != want {
		t.Fatalf("tampered expectation: %d failed operations, want %d (digest and count per campaign)", out.failed, want)
	}
}

func TestExpectationsParse(t *testing.T) {
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	for w, seeds := range exp {
		if _, ok := workloads[w]; !ok {
			t.Errorf("expected.json names unknown workload %q", w)
		}
		for seed, x := range seeds {
			if len(x.Digest) != 64 || x.Records <= 0 {
				t.Errorf("%s seed %s: bad record %+v", w, seed, x)
			}
			if (w == "archive") != (x.AnalyzedDigest != "") {
				t.Errorf("%s seed %s: analyzed digest %q", w, seed, x.AnalyzedDigest)
			}
		}
	}
}

// TestDefinitionFile checks that BENCHMARK.json is what the
// definitions in code render, and that it keeps the benchmark
// contract's limits.
func TestDefinitionFile(t *testing.T) {
	want, err := marshalDefinition()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with --write-definition BENCHMARK.json")
	}
	var d map[string]json.RawMessage
	if err := json.Unmarshal(got, &d); err != nil {
		t.Fatal(err)
	}
	if len(d) != 6 {
		t.Fatalf("BENCHMARK.json has %d keys, want 6", len(d))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) breaks the naming rules or repeats", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
		}
	}
	for _, m := range perLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if !seen["setup_s"] || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, w := range workloadOrder {
		if !name.MatchString(w) || len(workloads[w].Why) > 200 || strings.Contains(workloads[w].Why, "\n") {
			t.Errorf("workload %q breaks the naming rules", w)
		}
	}
}
