package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// Profile attribution. Every CPU or allocation sample is charged to one
// bucket, from its stack read leaf first:
//
//   - a stack running GC work (background mark workers, assists,
//     sweeping, scavenging) goes to the runtime bucket;
//   - a stack whose innermost frame outside the runtime is the
//     benchmark's own is harness work (its spans, seams and checks);
//   - otherwise the innermost whowas/internal/<module> frame names the
//     bucket, except that a crypto/tls frame inside that module frame
//     makes it a TLS sample of the module's side ("tls.cloud" under
//     netsim, "tls.platform" under the fetcher);
//   - a stack with no module frame but net/http client frames belongs to
//     the fetcher, whose http.Transport runs those goroutines;
//   - a stack with only the benchmark's own frames is the harness;
//   - anything else (scheduler, idle runtime goroutines) is runtime.
const (
	bucketRuntime     = "runtime"
	bucketHarness     = "harness"
	bucketTLSCloud    = "tls.cloud"
	bucketTLSPlatform = "tls.platform"
)

const modulePrefix = "whowas/internal/"

// cloudModules are the simulated infrastructure's modules; every other
// module of whowas/internal is the measurement platform's.
var cloudModules = map[string]bool{
	"cloudapi": true, "cloudsim": true, "netsim": true, "websim": true,
	"dnssim": true, "blacklist": true, "faults": true,
}

// internalModules are the modules the checkout's internal/ directory
// holds (loadModules). A bucket that is neither one of them nor one of
// the named buckets above belongs to no side, so a misread stack shows
// as shares that do not add up to 1.
var internalModules map[string]bool

// loadModules reads the module names under dir (the checkout's
// internal/ directory).
func loadModules(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("listing the program's modules: %w", err)
	}
	mods := map[string]bool{}
	for _, e := range ents {
		if e.IsDir() {
			mods[e.Name()] = true
		}
	}
	for m := range cloudModules {
		if !mods[m] {
			return fmt.Errorf("cloud module %s is not in %s", m, dir)
		}
	}
	internalModules = mods
	return nil
}

// gcFrames mark a stack as garbage-collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcStart",
}

// sideOf returns "cloud", "platform", "runtime" or "harness" for a
// bucket, or "" for a bucket that names no module of the program.
func sideOf(bucket string) string {
	switch bucket {
	case bucketRuntime:
		return "runtime"
	case bucketHarness:
		return "harness"
	case bucketTLSCloud:
		return "cloud"
	case bucketTLSPlatform:
		return "platform"
	}
	switch {
	case cloudModules[bucket]:
		return "cloud"
	case internalModules[bucket]:
		return "platform"
	}
	return ""
}

// moduleOf returns the whowas/internal module of a function name
// ("store" for both store and store/colstore), or "".
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

func isHarness(fn string) bool {
	return strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "whowas/perfbench.")
}

// attribute returns the bucket of one stack of function names, leaf
// first.
func attribute(stack []string) string {
	tlsInside := false
	httpClient := false
	harness := false
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return bucketRuntime
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "sync.") {
			continue
		}
		if isHarness(fn) {
			return bucketHarness
		}
		break
	}
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			if tlsInside {
				if cloudModules[m] {
					return bucketTLSCloud
				}
				return bucketTLSPlatform
			}
			return m
		}
		switch {
		case strings.HasPrefix(fn, "crypto/tls."):
			tlsInside = true
		case strings.HasPrefix(fn, "net/http."):
			httpClient = true
		case isHarness(fn):
			harness = true
		}
	}
	switch {
	case httpClient && tlsInside:
		return bucketTLSPlatform
	case httpClient:
		return "fetcher"
	case harness:
		return bucketHarness
	}
	return bucketRuntime
}

// shares holds one profile's samples per bucket.
type shares map[string]int64

func (s shares) total() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// of returns the share of the named buckets in the total.
func (s shares) of(buckets ...string) float64 {
	var n int64
	for _, b := range buckets {
		n += s[b]
	}
	return ratio(float64(n), float64(s.total()))
}

// side returns the share of every bucket on one side.
func (s shares) side(name string) float64 {
	var n int64
	for b, v := range s {
		if sideOf(b) == name {
			n += v
		}
	}
	return ratio(float64(n), float64(s.total()))
}

func (s shares) add(o shares) {
	for k, v := range o {
		s[k] += v
	}
}

// cpuShares attributes a runtime/pprof CPU profile (gzipped protobuf)
// by sample count. It also returns the CPU time the samples stand for:
// their count times the profile's sampling period.
func cpuShares(data []byte) (shares, time.Duration, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, 0, err
	}
	out := shares{}
	for _, smp := range p.samples {
		var stack []string
		for _, loc := range smp.locs {
			stack = append(stack, p.locFuncs[loc]...)
		}
		n := int64(1)
		if len(smp.values) > 0 {
			n = smp.values[0]
		}
		out[attribute(stack)] += n
	}
	return out, time.Duration(out.total() * p.period), nil
}

// allocShares attributes the runtime's heap profile by allocated
// bytes. The profile is cumulative; callers difference two readings.
// Each record is scaled up for the sampling the way pprof does, so
// small frequent allocations weigh what they cost.
func allocShares() shares {
	// The heap profile publishes a cycle's allocations only once a
	// later cycle completes; two collections bring it up to date.
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	out := shares{}
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		var stack []string
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		out[attribute(stack)] += unsampled(r.AllocBytes, r.AllocObjects)
	}
	return out
}

// unsampled estimates the bytes a heap profile record stands for: a
// record of objects of average size s was sampled with probability
// 1-exp(-s/MemProfileRate).
func unsampled(bytes, objects int64) int64 {
	rate := float64(runtime.MemProfileRate)
	if objects == 0 || rate <= 1 {
		return bytes
	}
	avg := float64(bytes) / float64(objects)
	return int64(float64(bytes) / (1 - math.Exp(-avg/rate)))
}

// diff returns s − before, bucket by bucket.
func (s shares) diff(before shares) shares {
	out := shares{}
	for k, v := range s {
		if d := v - before[k]; d > 0 {
			out[k] = d
		}
	}
	return out
}

// A minimal reader for the profile.proto messages runtime/pprof writes:
// samples, locations (with inlined lines) and functions.
type profSample struct {
	locs   []uint64
	values []int64
}

type parsedProfile struct {
	period   int64 // nanoseconds of CPU per sample
	samples  []profSample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

func parseProfile(data []byte) (*parsedProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		period  int64
		samples []profSample
		locs    = map[uint64][]uint64{} // location → function ids
		funcs   = map[uint64]int64{}    // function → name string index
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &parsedProfile{period: period, samples: samples, locFuncs: map[uint64][]string{}}
	for id, fns := range locs {
		for _, f := range fns {
			idx := funcs[f]
			if idx < 0 || idx >= int64(len(strs)) {
				return nil, errors.New("profile: function name out of range")
			}
			p.locFuncs[id] = append(p.locFuncs[id], strs[idx])
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints decodes a repeated varint field in either encoding:
// one value per field (wire type 0) or packed (wire type 2).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
