package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Tracer records hierarchical spans and exports them in the Chrome
// trace-event format (load the file at chrome://tracing or
// https://ui.perfetto.dev). It is safe for concurrent use: root spans get
// their own track (tid), children inherit their parent's, so parallel sweep
// evaluations render as parallel tracks.
type Tracer struct {
	mu      sync.Mutex
	now     func() int64 // nanoseconds since tracer creation
	events  []traceEvent
	nextTID int64
	// replayable marks an injected clock (NewTracerWithClock).
	replayable bool
}

// spanArg is one key/value annotation on a span.
type spanArg struct {
	key   string
	str   string
	num   float64
	isStr bool
}

// traceEvent is one recorded span. dur stays -1 while the span is open.
type traceEvent struct {
	name  string
	tid   int64
	start int64
	dur   int64
	args  []spanArg
}

// NewTracer returns a tracer stamping spans with the wall clock.
func NewTracer() *Tracer {
	start := time.Now()
	return &Tracer{now: func() int64 { return int64(time.Since(start)) }}
}

// NewTracerWithClock returns a tracer using a caller-supplied monotonic
// clock returning nanoseconds. Tests inject a counting clock to make traces
// byte-for-byte deterministic.
func NewTracerWithClock(now func() int64) *Tracer {
	return &Tracer{now: now, replayable: true}
}

// Replayable reports whether the tracer runs on an injected clock, whose
// traces promise byte-for-byte replay. Work that would read such a clock
// from overlapping goroutines, and so interleave its ticks, runs in order
// instead.
func (t *Tracer) Replayable() bool { return t != nil && t.replayable }

// StartSpan opens a root span on a fresh track. On a nil tracer it returns
// the inert zero Span.
func (t *Tracer) StartSpan(name string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	t.nextTID++
	s := t.spanLocked(name, t.nextTID)
	t.mu.Unlock()
	return s
}

// spanLocked appends an open event; t.mu must be held.
func (t *Tracer) spanLocked(name string, tid int64) Span {
	idx := len(t.events)
	t.events = append(t.events, traceEvent{name: name, tid: tid, start: t.now(), dur: -1})
	return Span{t: t, idx: idx, tid: tid}
}

// Span is a handle to one open or closed trace interval. The zero value is
// inert: Child returns another inert span and End/Arg do nothing, so
// disabled tracing costs neither branches at call sites nor allocations.
type Span struct {
	t   *Tracer
	idx int
	tid int64
}

// Active reports whether the span records anywhere.
func (s Span) Active() bool { return s.t != nil }

// Child opens a sub-span on the same track.
func (s Span) Child(name string) Span {
	if s.t == nil {
		return Span{}
	}
	s.t.mu.Lock()
	c := s.t.spanLocked(name, s.tid)
	s.t.mu.Unlock()
	return c
}

// End closes the span. Ending an already-ended span is a no-op.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if e := &s.t.events[s.idx]; e.dur < 0 {
		e.dur = s.t.now() - e.start
	}
	s.t.mu.Unlock()
}

// Arg annotates the span with a numeric value and returns it for chaining.
func (s Span) Arg(key string, v float64) Span {
	if s.t == nil {
		return s
	}
	s.t.mu.Lock()
	e := &s.t.events[s.idx]
	e.args = append(e.args, spanArg{key: key, num: v})
	s.t.mu.Unlock()
	return s
}

// ArgInt annotates the span with an integer value.
func (s Span) ArgInt(key string, v int) Span { return s.Arg(key, float64(v)) }

// ArgStr annotates the span with a string value.
func (s Span) ArgStr(key, v string) Span {
	if s.t == nil {
		return s
	}
	s.t.mu.Lock()
	e := &s.t.events[s.idx]
	e.args = append(e.args, spanArg{key: key, str: v, isStr: true})
	s.t.mu.Unlock()
	return s
}

// SpanRecord is a read-only copy of one recorded span, for tests and
// programmatic inspection.
type SpanRecord struct {
	Name    string
	TID     int64
	StartNs int64
	DurNs   int64 // -1 while open
	Args    map[string]float64
	StrArgs map[string]string
}

// Snapshot returns copies of all recorded spans in creation order. A nil
// tracer has recorded nothing and returns nil.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.events))
	for i, e := range t.events {
		r := SpanRecord{Name: e.name, TID: e.tid, StartNs: e.start, DurNs: e.dur}
		for _, a := range e.args {
			if a.isStr {
				if r.StrArgs == nil {
					r.StrArgs = map[string]string{}
				}
				r.StrArgs[a.key] = a.str
			} else {
				if r.Args == nil {
					r.Args = map[string]float64{}
				}
				r.Args[a.key] = a.num
			}
		}
		out[i] = r
	}
	return out
}

// WellNested verifies that the spans of each track either nest or are
// disjoint — the structural invariant the Chrome trace viewer assumes for
// same-track events. It returns a descriptive error on the first violation
// (overlapping spans, an unclosed span, or a child escaping its parent).
func WellNested(recs []SpanRecord) error {
	type openSpan struct {
		name string
		end  int64
	}
	stacks := map[int64][]openSpan{}
	for _, r := range recs {
		if r.DurNs < 0 {
			return fmt.Errorf("span %q on track %d was never ended", r.Name, r.TID)
		}
		stack := stacks[r.TID]
		// Pop ancestors that finished before this span starts.
		for len(stack) > 0 && stack[len(stack)-1].end <= r.StartNs {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			if parent := stack[len(stack)-1]; r.StartNs+r.DurNs > parent.end {
				return fmt.Errorf("span %q [%d,%d) escapes enclosing %q ending at %d on track %d",
					r.Name, r.StartNs, r.StartNs+r.DurNs, parent.name, parent.end, r.TID)
			}
		}
		stacks[r.TID] = append(stack, openSpan{name: r.Name, end: r.StartNs + r.DurNs})
	}
	return nil
}

// chromeEvent mirrors one entry of the Chrome trace-event JSON format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object flavor of the format, which tools accept
// alongside the bare-array flavor.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports every span as a complete ("X") trace event.
// Spans still open at export time are given their elapsed duration so the
// file is always loadable. A nil tracer writes an empty but loadable trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: []chromeEvent{}, DisplayUnit: "ms"})
	}
	t.mu.Lock()
	now := t.now()
	events := make([]chromeEvent, len(t.events))
	for i, e := range t.events {
		dur := e.dur
		if dur < 0 {
			dur = now - e.start
		}
		ev := chromeEvent{
			Name: e.name,
			Ph:   "X",
			Ts:   float64(e.start) / 1e3,
			Dur:  float64(dur) / 1e3,
			Pid:  1,
			Tid:  e.tid,
		}
		if len(e.args) > 0 {
			ev.Args = make(map[string]any, len(e.args))
			for _, a := range e.args {
				if a.isStr {
					ev.Args[a.key] = a.str
				} else {
					ev.Args[a.key] = a.num
				}
			}
		}
		events[i] = ev
	}
	t.mu.Unlock()

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayUnit: "ms"})
}
