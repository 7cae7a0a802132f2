package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one compile or request
// share a Trace; Parent is the ID of the span that caused this one (0 for a
// root).
type span struct {
	Trace   int64  `json:"trace"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// AllocBytes is the heap allocated during the span (recorded for
	// pipeline layers only; concurrent work in the process is included).
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// dur is the span's duration.
func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	next   int64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newID allocates a span or trace identifier.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// do runs fn inside a span named name and returns the recorded span. With
// alloc set it also records the heap bytes allocated while fn ran.
func (t *tracer) do(trace, parent int64, name string, alloc bool, fn func()) span {
	s := span{Trace: trace, ID: t.newID(), Parent: parent, Name: name}
	var a0 uint64
	if alloc {
		a0 = totalAlloc()
	}
	start := time.Now()
	fn()
	end := time.Now()
	if alloc {
		s.AllocBytes = totalAlloc() - a0
	}
	s.StartNS = int64(start.Sub(t.origin))
	s.EndNS = int64(end.Sub(t.origin))
	t.add(s)
	return s
}

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps every span as one JSON document into dir/name.
func (t *tracer) write(dir, name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("perfbench: wrote %d spans to %s\n", len(t.spans), path)
	return nil
}
