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

// The benchmark's own tracing. Spans are recorded around calls into the
// program's layers from this package only; nothing inside the program is
// instrumented. Spans stay in memory and are written out when the run
// ends, so recording one costs a clock read and an append under a lock.

// span is one call into a layer. Parent is the span that caused it (0 for
// a root); Req groups the spans of one request: an HTTP request and the
// direct handler call that replays it share one.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Req    int64              `json:"req,omitempty"`
	Layer  string             `json:"layer"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span. The caller closes it with end, after filling Counts.
func (t *tracer) start(parent *span, req int64, layer, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{Req: req, Layer: layer, Name: name}
	if parent != nil {
		s.Parent = parent.ID
		if req == 0 {
			s.Req = parent.Req
		}
	}
	t.mu.Lock()
	s.ID = int64(len(t.spans)) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.Start = int64(time.Since(t.t0))
	return s
}

// end closes s and adds counts to the span's own.
func (t *tracer) end(s *span, counts map[string]float64) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	s.End = end
	t.mu.Unlock()
	t.count(s, counts)
}

// count adds counts to a span, open or closed.
func (t *tracer) count(s *span, counts map[string]float64) {
	if t == nil || len(counts) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.Counts == nil {
		s.Counts = make(map[string]float64, len(counts))
	}
	for k, v := range counts {
		s.Counts[k] += v
	}
}

// named returns the closed spans with the given name.
func (t *tracer) named(name string) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*span
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations in seconds of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var d []float64
	for _, s := range t.named(name) {
		d = append(d, s.dur())
	}
	return d
}

// total sums the durations and one count over the spans named name.
func (t *tracer) total(name, count string) (seconds, n float64) {
	for _, s := range t.named(name) {
		seconds += s.dur()
		n += s.Counts[count]
	}
	return seconds, n
}

// layerTime is the time a layer's spans took, and their self time: each
// span's duration minus the part of it that its child spans cover.
type layerTime struct {
	Spans  int     `json:"spans"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) layerTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]*span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range t.spans {
		lt := out[s.Layer]
		lt.Spans++
		lt.TotalS += s.dur()
		lt.SelfS += s.dur() - covered(s, children[s.ID])
		out[s.Layer] = lt
	}
	return out
}

// covered is the length in seconds of the union of the children's
// intervals, clipped to the parent's.
func covered(parent *span, kids []*span) float64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	sum += curHi - curLo
	return float64(sum) / 1e9
}

// write stores the record, the per-layer times and every span under
// .bench_out/ and returns the file's path.
func (t *tracer) write(workload string, seed int64, rec map[string]any) (string, error) {
	dir := ".bench_out"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"record": rec, "layers": t.layerTimes(), "spans": spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	return path, nil
}
