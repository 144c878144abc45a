package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one benchmark
// operation share Op; Parent is the ID of the span that caused this one (0
// for a root). Start and End are nanoseconds since the recorder's origin.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps finished spans in memory until the run writes them out.
// A nil recorder records nothing, so untraced code paths call it freely.
type recorder struct {
	origin time.Time
	next   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span; the caller passes the result to end.
func (r *recorder) begin(name string, op, parent int64) span {
	if r == nil {
		return span{}
	}
	return span{ID: r.next.Add(1), Parent: parent, Op: op, Name: name, Start: time.Since(r.origin).Nanoseconds()}
}

// end closes s and keeps it.
func (r *recorder) end(s span) {
	if r == nil {
		return
	}
	s.End = time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// around records f as one span.
func (r *recorder) around(name string, op, parent int64, f func()) {
	s := r.begin(name, op, parent)
	f()
	r.end(s)
}

// finished returns a copy of the spans recorded so far.
func (r *recorder) finished() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes maps each span's ID to its self time: its duration minus the
// part of its interval that its children cover. Overlapping children are
// counted once, and a child's time outside its parent is ignored.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerTotals sums self time (ns) and counts spans by name, over the spans
// of timed operations (Op ≥ 0).
func layerTotals(spans []span) (total map[string]int64, calls map[string]int) {
	self := selfTimes(spans)
	total, calls = make(map[string]int64), make(map[string]int)
	for _, s := range spans {
		if s.Op < 0 {
			continue
		}
		total[s.Name] += self[s.ID]
		calls[s.Name]++
	}
	return total, calls
}
