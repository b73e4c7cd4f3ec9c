package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed call the benchmark made into a layer. Spans live
// in memory for the whole run and are written out when it ends; the
// trace id groups the spans of one cell, round or cycle.
type span struct {
	Name    string        `json:"name"`
	ID      uint64        `json:"id"`
	Parent  uint64        `json:"parent,omitempty"`
	TraceID int           `json:"trace_id"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

// spanLog collects spans. The nil *spanLog records nothing, so untraced
// runs pay one nil check per call site.
type spanLog struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	traces int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newTrace returns a fresh run-wide trace id (0 on the nil log).
func (l *spanLog) newTrace() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.traces++
	return l.traces
}

// lastTrace returns the trace id newTrace returned last.
func (l *spanLog) lastTrace() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.traces
}

// begin opens a span and returns its id (0 on the nil log).
func (l *spanLog) begin(name string, parent uint64, traceID int) uint64 {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, ID: uint64(len(l.spans) + 1), Parent: parent, TraceID: traceID, Start: now})
	return uint64(len(l.spans))
}

// end closes the span begin returned.
func (l *spanLog) end(id uint64) {
	if l == nil {
		return
	}
	now := time.Since(l.t0)
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover. Children may overlap (fleet workers plan
// concurrently); the covered part is the union of their intervals.
func (l *spanLog) selfTimes() map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range l.spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, curEnd := parent.Start, parent.Start
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			total += curEnd - cur
			cur = start
		}
		curEnd = max(curEnd, end)
	}
	return total + curEnd - cur
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
