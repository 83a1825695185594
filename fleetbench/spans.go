package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed call the benchmark made into the fleet. Spans of one
// batch share its id; a query's id is its number on the query connection.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, which is how the untraced runs pay nothing.
type spanLog struct {
	mu    sync.Mutex
	spans []span // guarded by mu
}

// batchID numbers a batch uniquely across edges.
func batchID(b *batch) uint64 { return uint64(b.edge)<<32 | uint64(b.idx) }

// parents gives each span name the span that caused it.
var parents = map[string]string{"ack.edge": "export", "ack.global": "export"}

func (l *spanLog) add(name string, b *batch, start, end int64) {
	if l == nil || start == 0 {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, ID: batchID(b), Parent: parents[name], Start: start, End: end})
	l.mu.Unlock()
}

func (l *spanLog) addQuery(n uint64, start, end int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: "query", ID: n, Start: start, End: end})
	l.mu.Unlock()
}

// durations returns the ms durations of the spans called name.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	return f.Close()
}

// hops returns, per batch, the ms from the relay's ack to the edge
// (ack.edge end) to global's ack of the same batch (ack.global end).
func (l *spanLog) hops() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	edge := make(map[uint64]int64)
	for _, s := range l.spans {
		if s.Name == "ack.edge" {
			edge[s.ID] = s.End
		}
	}
	var out []float64
	for _, s := range l.spans {
		if at, ok := edge[s.ID]; ok && s.Name == "ack.global" {
			out = append(out, float64(s.End-at)/1e6)
		}
	}
	return out
}
