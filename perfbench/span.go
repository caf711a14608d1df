package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, its
// interval relative to the tracer's epoch, the span that caused it and
// the request it belongs to (0 when it serves no single request).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index+1 of the parent span, 0 for a root
	Request int64  `json:"request"`
}

// tracer keeps spans in memory for the traced run; they are written out
// once, when the run ends. It is safe for concurrent use: the open-loop
// generator records spans from several connections at once.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle (index+1), which children pass
// as their parent.
func (t *tracer) begin(name string, parent int, request int64) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNs: now, EndNs: -1, Parent: parent, Request: request})
	h := len(t.spans)
	t.mu.Unlock()
	return h
}

// end closes the span with handle h and returns its duration.
func (t *tracer) end(h int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[h-1]
	s.EndNs = now
	d := time.Duration(now - s.StartNs)
	t.mu.Unlock()
	return d
}

// record adds an already-timed span (the generator times requests itself).
func (t *tracer) record(name string, parent int, request int64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNs: start.Sub(t.epoch).Nanoseconds(),
		EndNs: end.Sub(t.epoch).Nanoseconds(), Parent: parent, Request: request})
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, fn func(h int)) time.Duration {
	h := t.begin(name, parent, 0)
	fn(h)
	return t.end(h)
}

// layerTime is one span name's aggregate: how many spans, their total
// duration and their self time (duration minus the part covered by child
// spans).
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes aggregates the closed spans by name, largest self time first.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 && s.EndNs >= 0 {
			child[s.Parent-1] += s.EndNs - s.StartNs
		}
	}
	by := map[string]*layerTime{}
	for i, s := range t.spans {
		if s.EndNs < 0 {
			continue
		}
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		d := s.EndNs - s.StartNs
		lt.Count++
		lt.TotalMs += float64(d) / 1e6
		lt.SelfMs += float64(d-child[i]) / 1e6
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores every span and the per-name self times as JSON at path.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{self, t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
