package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call from the benchmark into a layer of the program: a phone
// registering, a dial until the dialog is confirmed, an SLP lookup, a
// hangup. Spans of one call share its Call-ID; set-up operations carry an
// ID naming their subject.
type span struct {
	ID      string `json:"id"`
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	StartNs int64  `json:"start_ns"` // since the run started
	EndNs   int64  `json:"end_ns"`
	Err     string `json:"err,omitempty"`
}

// tracer keeps the benchmark's spans in memory; they are written out once,
// when the run ends, so tracing costs no I/O while the program is measured.
// A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores one finished span.
func (t *tracer) record(id, layer, op string, start, end time.Time, err error) {
	if t == nil {
		return
	}
	s := span{ID: id, Layer: layer, Op: op, StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()}
	if err != nil {
		s.Err = err.Error()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations of every span of one layer operation.
func (t *tracer) durations(layer, op string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Op == op && s.Err == "" {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace encode: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace flush: %w", err)
	}
	return f.Close()
}
