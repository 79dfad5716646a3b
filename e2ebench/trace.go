package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public entry point. Parent is
// the span that caused it (0 for a root); Req identifies the request
// it served, node/stream/frame for frames and node/seq-like keys for
// uploads, so one frame's spans can be gathered across layers.
type span struct {
	ID, Parent uint64
	Name       string
	Req        string
	Start, End time.Time
	// TID groups spans into one Chrome-trace row (the driving
	// goroutine: an agent's generator, the replay, the controller).
	TID int
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; a full buffer drops (and counts) further spans
// rather than growing without bound.
type tracer struct {
	next    atomic.Uint64
	mu      sync.Mutex
	spans   []span
	limit   int
	dropped int
}

func newTracer(limit int) *tracer { return &tracer{limit: limit} }

// id reserves a span id, so a parent can hand its id to children
// before the parent itself ends.
func (t *tracer) id() uint64 { return t.next.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// record adds a span with a fresh id and returns the id.
func (t *tracer) record(name, req string, parent uint64, tid int, start, end time.Time) uint64 {
	id := t.id()
	t.add(span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end, TID: tid})
	return id
}

func (t *tracer) snapshot() ([]span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), t.dropped
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children's intervals cover. Overlapping
// children are counted once, and a child sticking out of its parent
// only counts inside the parent's interval.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals clipped to
// the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format that chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes spans as Chrome-trace JSON, timestamps in
// microseconds from the earliest span, with meta under otherData.
func writeChrome(w io.Writer, spans []span, meta any) error {
	var t0 time.Time
	for i, s := range spans {
		if i == 0 || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	evs := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: s.TID,
			TS:   float64(s.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		OtherData   any           `json:"otherData"`
	}{evs, meta})
}
