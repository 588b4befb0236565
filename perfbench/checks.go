package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"

	"whowas/internal/cloudapi"
)

// expected.json records, per workload and seed, the store digest and
// record count a correct run produces. For a seed it has no record of,
// the workloads still check what needs no record: every campaign of a
// run replays the same digest, no round is degraded, and archive's
// columnar store digests identically to the in-memory one.
//
//go:embed expected.json
var expectedJSON []byte

// expectation is one (workload, seed) record.
type expectation struct {
	Digest  string `json:"digest"`
	Records int64  `json:"records"`
	// AnalyzedDigest is archive's digest after cartography and
	// clustering have written their labels back.
	AnalyzedDigest string `json:"analyzed_digest,omitempty"`
}

// expectations maps workload → seed → expectation.
type expectations map[string]map[string]expectation

func loadExpectations() (expectations, error) {
	return parseExpectations(expectedJSON)
}

func parseExpectations(b []byte) (expectations, error) {
	var e expectations
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

func (e expectations) lookup(workload string, seed int64) (expectation, bool) {
	x, ok := e[workload][strconv.FormatInt(seed, 10)]
	return x, ok
}

// checker tallies a run's operations and failures. Operations are
// campaign rounds, ingest rounds, analysis calls, lookups and output
// checks; a failed operation is one that errored, a degraded round, or
// a check whose output disagreed.
type checker struct {
	attempted, failed int64
	failures          []string
}

func (c *checker) op(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
}

// checkDigest compares a store's digest and record count with the
// recorded expectation when there is one, and with the run's own
// reference (the first campaign, or the other backend) always.
func (c *checker) checkDigest(what string, digest, want string, records, wantRecords int64) {
	c.op(digest == want, "%s: digest %s, want %s", what, digest, want)
	c.op(records == wantRecords, "%s: %d records, want %d", what, records, wantRecords)
}

// recordExpectation computes a (workload, seed) record from scratch,
// untimed: one campaign for the collect workloads; for archive the
// collected input and its analysed in-memory store.
func recordExpectation(workload string, seed int64) (expectation, error) {
	ctx := context.Background()
	cloudCfg := cloudapi.DefaultEC2Config(cloudScale, seed)
	var x expectation
	switch workload {
	case collectPlain.name, collectLossy.name:
		spec := collectPlain
		if workload == collectLossy.name {
			spec = collectLossy
		}
		camp, err := spec.campaignConfig(seed, cloudCfg.Days)
		if err != nil {
			return x, err
		}
		r := runCampaign(ctx, cloudCfg, camp, nil)
		return expectation{Digest: r.digest, Records: r.records}, r.err
	case "archive":
		src, err := collectArchiveSource(ctx, cloudCfg, nil)
		if err != nil {
			return x, err
		}
		x = expectation{Digest: src.digest, Records: src.records}
		x.AnalyzedDigest, err = src.analyze(ctx)
		return x, err
	}
	return x, fmt.Errorf("unknown workload %q", workload)
}
