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

// span is one timed call at a layer boundary. Spans of one job or session
// share Trace; Parent is the index of the enclosing span, or -1.
type span struct {
	Trace  uint64 `json:"trace"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay only a nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(trace uint64, parent int, name, label string) int {
	if t == nil {
		return -1
	}
	return t.add(span{Trace: trace, Parent: parent, Name: name, Label: label, Start: t.now()})
}

// end closes the span begin returned and returns its duration in ns (0 on
// a nil tracer).
func (t *tracer) end(id int) int64 {
	if t == nil || id < 0 {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return t.spans[id].dur()
}

// add records a span whose bounds the caller measured itself and returns
// its index (-1 on a nil tracer).
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (their union, clipped to the parent).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].dur() - covered(spans, i, kids[i])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(spans []span, parent int, kids []int) int64 {
	lo, hi := spans[parent].Start, spans[parent].End
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(spans[k].Start, lo), min(spans[k].End, hi)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] <= curE:
			curE = max(curE, x[1])
		default:
			total += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// layerKey names a layer in the self-time table: the span name, with its
// label when it has one.
func layerKey(s *span) string {
	if s.Label == "" {
		return s.Name
	}
	return s.Name + "." + s.Label
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"` // of all root spans' time
}

// selfTable sums self time per layer, largest first.
func selfTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	var rootNs int64
	for i := range spans {
		if spans[i].Parent < 0 {
			rootNs += spans[i].dur()
		}
		k := layerKey(&spans[i])
		r := rows[k]
		if r == nil {
			r = &layerRow{Layer: k}
			rows[k] = r
		}
		r.Spans++
		r.SelfMs += float64(self[i]) / 1e6
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		if rootNs > 0 {
			r.Share = r.SelfMs * 1e6 / float64(rootNs)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMs > out[b].SelfMs })
	return out
}

// traceFile is the traced run's output document.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Untraced map[string]float64 `json:"untraced"`
	Traced   map[string]float64 `json:"traced"`
	Overhead map[string]float64 `json:"overhead"` // traced minus untraced
	Self     []layerRow         `json:"self_time"`
	Spans    []span             `json:"spans"`
}

// writeTrace writes the trace document to dir and returns its path.
func writeTrace(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", tf.Workload, tf.Seed))
	data, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	return path, nil
}
