package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Times are offsets from
// the tracer's start; Parent 0 marks a request's root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request string `json:"request"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndUs-s.StartUs) * time.Microsecond }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID. A nil tracer records
// nothing, so untraced runs share the traced code path.
func (t *tracer) add(name, req string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Request: req,
		StartUs: start.Sub(t.t0).Microseconds(), EndUs: end.Sub(t.t0).Microseconds()})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name, req string, parent int) int {
	now := time.Now()
	return t.add(name, req, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	t.spans[id-1].EndUs = end
	t.mu.Unlock()
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name, req string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, req, parent, start, end)
	return end.Sub(start)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once, and a child reaching outside its parent counts only inside it).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUs < kids[j].StartUs })
		covered, reach := int64(0), s.StartUs
		for _, k := range kids {
			lo, hi := max(k.StartUs, reach), min(k.EndUs, s.EndUs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)*time.Microsecond
	}
	return out
}

// spanSummary aggregates spans by name: how many, their total duration
// and their total self time, in milliseconds.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func summarize(spans []span) map[string]spanSummary {
	self := selfTimes(spans)
	out := map[string]spanSummary{}
	for _, s := range spans {
		sum := out[s.Name]
		sum.Count++
		sum.TotalMs += ms(s.dur())
		sum.SelfMs += ms(self[s.ID])
		out[s.Name] = sum
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
