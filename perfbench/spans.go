package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"whowas/internal/trace"
)

// spanRecorder keeps the benchmark's own spans in memory until the run
// ends. Span IDs are drawn from the platform tracer's sequence, so the
// benchmark's spans and the program's spans share one ID space: a dial
// span can name the program's probe or GET span as its parent. A nil
// recorder records nothing (the end-to-end runs).
type spanRecorder struct {
	tr *trace.Tracer

	mu    sync.Mutex
	spans []trace.SpanSnapshot

	// current is the ID of the benchmark span enclosing calls that
	// carry no context (Backend methods, SetDay); 0 when none is open.
	current atomic.Uint64
}

func newSpanRecorder(tr *trace.Tracer) *spanRecorder { return &spanRecorder{tr: tr} }

// benchSpan is an open span of the benchmark's.
type benchSpan struct {
	rec    *spanRecorder
	id     uint64
	parent uint64
	name   string
	start  time.Time
}

// start opens a span whose parent is the span ctx carries, or the
// recorder's current span when ctx carries none. On a nil recorder the
// span only times the call.
func (r *spanRecorder) start(ctx context.Context, name string) benchSpan {
	if r == nil {
		return benchSpan{start: time.Now()}
	}
	parent := r.current.Load()
	if ctx != nil {
		if p := trace.FromContext(ctx); p != nil {
			parent = p.ID()
		}
	}
	return benchSpan{rec: r, id: r.tr.ReserveIDs(1), parent: parent, name: name, start: time.Now()}
}

// enter opens a span and makes it the current one until the returned
// function closes it.
func (r *spanRecorder) enter(name string) func() {
	if r == nil {
		return func() {}
	}
	sp := r.start(nil, name)
	prev := r.current.Swap(sp.id)
	return func() {
		r.current.Store(prev)
		sp.end()
	}
}

// end records the span and returns its duration.
func (s benchSpan) end() time.Duration {
	d := time.Since(s.start)
	if s.rec == nil {
		return d
	}
	s.rec.mu.Lock()
	s.rec.spans = append(s.rec.spans, trace.SpanSnapshot{
		ID: s.id, Parent: s.parent, Name: s.name, StartNS: s.start.UnixNano(), DurNS: d.Nanoseconds(),
	})
	s.rec.mu.Unlock()
	return d
}

func (r *spanRecorder) drain() []trace.SpanSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// layerOfSpan names the module a span measures. The benchmark's spans
// carry their module as a name prefix; the program's spans are mapped
// by name.
func layerOfSpan(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	switch name {
	case "round":
		return "core"
	case "scan", "fetch", "featurize":
		return "pipeline"
	case "probe":
		return "scanner"
	case "get":
		return "fetcher"
	case "level1", "threshold", "level2", "merge", "clean":
		return "cluster"
	}
	return name
}

// selfTimes returns each layer's self time: the summed durations of its
// spans minus the parts of each span's interval its children cover.
func selfTimes(spans []trace.SpanSnapshot) map[string]time.Duration {
	type interval struct{ start, end int64 }
	children := make(map[uint64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.StartNS, s.StartNS + s.DurNS})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		lo, hi := s.StartNS, s.StartNS+s.DurNS
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered := int64(0)
		cur := lo
		for _, k := range kids {
			a, b := max(k.start, cur), min(k.end, hi)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		out[layerOfSpan(s.Name)] += time.Duration(s.DurNS - covered)
	}
	return out
}
