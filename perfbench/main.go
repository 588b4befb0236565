// Command perfbench is WhoWas's repository benchmark: one program over
// the public API (core.Platform, cloudapi.Cloud, store.Store and
// store.Backend, colstore, carto, cluster, analysis) that runs one
// seeded workload per invocation, checks its outputs, and prints every
// metric by name and unit.
//
//	perfbench --workload collect --seed 1 --seconds 18 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with every
// instrument of the benchmark's own switched off. With --trace 1 it
// is the separate traced run: the platform's tracer, the benchmark's
// spans and seam wrappers, and CPU and allocation profiles attributed
// to layers give the per-layer metrics.
//
// The last line of standard output is the result object
// ({"correct", "attempted", "failed", "metrics"}); the line before it
// is a detail object with the environment, the workload's own names
// for its figures, and the output checks. --write-definition rewrites
// BENCHMARK.json from the definitions in definition.go.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// buildDir is where the benchmark's build and scratch files live,
// relative to the checkout root it runs from.
const buildDir = ".bench_build"

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// workDir holds the run's scratch files (colstore directories);
	// it is removed when the run ends.
	workDir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload hands back to main: the metrics of the
// requested mode plus the operation tally and the detail record.
type outcome struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	detail    map[string]any
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", runSeconds, "how long the timed phase measures")
	traced := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	writeDef := fs.String("write-definition", "", "write the benchmark definition (BENCHMARK.json) to this path and exit")
	record := fs.Bool("record-expected", false, "print the expected.json record of --workload and --seed and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *writeDef != "" {
		return writeDefinition(*writeDef)
	}
	if *record {
		x, err := recordExpectation(*workload, *seed)
		if err != nil {
			return err
		}
		return printJSONLine(map[string]any{"workload": *workload, "seed": *seed, "expectation": x})
	}
	w, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, workloadNames())
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, have %d", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, have %d", *traced)
	}
	if *traced == 1 {
		// A finer heap-profile sample for the allocation shares; set
		// before the run allocates.
		runtime.MemProfileRate = 64 << 10
	}
	exp, err := loadExpectations()
	if err != nil {
		return err
	}
	if err := loadModules("internal"); err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "run-*")
	if err != nil {
		return fmt.Errorf("creating work directory: %w", err)
	}
	defer os.RemoveAll(dir)
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	opt := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *traced == 1, workDir: abs}

	start := time.Now()
	out, err := w.run(opt, exp)
	if err != nil {
		return fmt.Errorf("workload %s: %w", opt.workload, err)
	}
	if err := checkReported(out.metrics, opt.trace); err != nil {
		return err
	}
	out.detail["workload"] = opt.workload
	out.detail["seed"] = opt.seed
	out.detail["trace"] = opt.trace
	out.detail["env"] = environment()
	out.detail["wall_s"] = time.Since(start).Seconds()
	if err := printJSONLine(map[string]any{"detail": out.detail}); err != nil {
		return err
	}
	return printJSONLine(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
}

func printJSONLine(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// checkReported enforces the output contract: a run reports exactly
// the metrics of its mode, with the units the definition declares.
func checkReported(got map[string]metric, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	var errs []error
	for _, d := range defs {
		m, ok := got[d.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s not reported", d.Name))
		case m.Unit != d.Unit:
			errs = append(errs, fmt.Errorf("metric %s has unit %q, definition says %q", d.Name, m.Unit, d.Unit))
		}
	}
	if len(got) != len(defs) {
		errs = append(errs, fmt.Errorf("reported %d metrics, definition has %d", len(got), len(defs)))
	}
	return errors.Join(errs...)
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	b, _ := json.Marshal(names)
	return string(b)
}
