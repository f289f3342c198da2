package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point. Parent is the index of the enclosing span (-1
// for none); Req groups the spans of one request or one loop iteration.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int64  `json:"req"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// While off, begin returns -1 and end ignores it, so untraced phases pay
// one branch per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	on    bool
	spans []span
}

// spanCapacity is preallocated so that recording a span never allocates
// inside a timed call whose allocations the traced run counts.
const spanCapacity = 1 << 16

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, spanCapacity)} }

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) begin(name string, parent int, req int64) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNS: now, EndNS: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the self time of every closed span in
// milliseconds: its duration minus the part of it that its children
// cover.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.EndNS >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for i, s := range t.spans {
		if s.EndNS < 0 {
			continue
		}
		self := s.EndNS - s.StartNS - covered(children[i], s.StartNS, s.EndNS)
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// covered is the length of the union of the spans' intervals, clipped to
// [lo, hi).
func covered(ss []span, lo, hi int64) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].StartNS < ss[j].StartNS })
	var total int64
	cur := lo
	for _, s := range ss {
		a, b := max(s.StartNS, cur), min(s.EndNS, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
