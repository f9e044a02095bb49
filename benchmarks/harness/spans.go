package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanEvery is the sampling rate of the traced run: one operation in 64
// becomes a span.
const spanEvery = 64

// Span is one timed call into a layer. Spans of one operation share Op;
// Parent names the span of the rung above (the caller's side of the
// boundary) for the same operation number. The rungs are separate
// executions of the same operation stream, so a span and its parent are
// related by operation, not by wall-clock nesting: in-program spans, which
// would nest in time, are a later change.
type Span struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Op      uint64 `json:"op"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// SpanRecorder keeps spans in memory until the run ends.
type SpanRecorder struct {
	mu     sync.Mutex
	origin time.Time
	parent map[string]string
	spans  []Span
}

// NewSpanRecorder starts a trace; rungs lists the ladder from the
// innermost layer outwards.
func NewSpanRecorder(rungs []string) *SpanRecorder {
	r := &SpanRecorder{origin: time.Now(), parent: map[string]string{}}
	for i := 0; i+1 < len(rungs); i++ {
		r.parent[rungs[i]] = rungs[i+1]
	}
	return r
}

var kindNames = [...]string{OpRead: "read", OpUpdate: "update", OpAddDelta: "adddelta"}

// Add records one span.
func (r *SpanRecorder) Add(rung string, kind OpKind, op uint64, start time.Time, d time.Duration) {
	s := start.Sub(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: rung, Kind: kindNames[kind], Op: op,
		Parent: r.parent[rung], StartNs: s, EndNs: s + d.Nanoseconds()})
	r.mu.Unlock()
}

// Len returns the number of spans recorded.
func (r *SpanRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// WriteFile writes the spans as one JSON document.
func (r *SpanRecorder) WriteFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc, err := json.Marshal(map[string]any{"sample_every": spanEvery, "spans": r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}
