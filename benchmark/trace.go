package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call. Op ties the spans of one operation together.
type span struct {
	Name    string  `json:"name"`
	Op      int     `json:"op"`
	StartUS float64 `json:"startUs"`
	DurUS   float64 `json:"durUs"`
}

// tracer keeps spans in memory until the run ends. Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// record adds a span that started at start and ends now, and returns its
// duration in milliseconds.
func (t *tracer) record(name string, op int, start time.Time) float64 {
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.t0.IsZero() {
		t.t0 = start
	}
	t.spans = append(t.spans, span{
		Name:    name,
		Op:      op,
		StartUS: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		DurUS:   float64(d.Nanoseconds()) / 1e3,
	})
	return float64(d.Nanoseconds()) / 1e6
}

// durations returns the durations of every span named name, in ms.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.DurUS/1e3)
		}
	}
	return out
}

// totalMS sums the durations of every span named name, in ms.
func (t *tracer) totalMS(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
