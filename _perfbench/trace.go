package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the benchmark's own code around a call
// into the program. All spans of one traced invocation share TraceID.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	TraceID string `json:"trace_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the recorder was created
	EndNS   int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// recorder keeps spans in memory; write saves them when the run ends.
// It is single-goroutine: the benchmark opens and closes spans on the
// goroutine that drives the program.
type recorder struct {
	traceID string
	origin  time.Time
	spans   []span
	open    []int // stack of indices into spans
}

func newRecorder(traceID string) *recorder {
	return &recorder{traceID: traceID, origin: time.Now()}
}

// start opens a span as a child of the innermost open span; end closes
// it and returns the finished span.
func (r *recorder) start(name string) {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, TraceID: r.traceID, Name: name,
		StartNS: time.Since(r.origin).Nanoseconds(),
	})
	r.open = append(r.open, len(r.spans)-1)
}

func (r *recorder) end() span {
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].EndNS = time.Since(r.origin).Nanoseconds()
	return r.spans[i]
}

// timed runs fn under a span and returns its seconds. A nil recorder
// runs fn untraced.
func (r *recorder) timed(name string, fn func()) float64 {
	if r == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0).Seconds()
	}
	r.start(name)
	fn()
	return r.end().seconds()
}

// write saves every span as one JSON document.
func (r *recorder) write(path string) error {
	if len(r.open) != 0 {
		return fmt.Errorf("trace: %d spans still open", len(r.open))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	b, err := json.MarshalIndent(struct {
		TraceID string `json:"trace_id"`
		Spans   []span `json:"spans"`
	}{r.traceID, r.spans}, "", " ")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
