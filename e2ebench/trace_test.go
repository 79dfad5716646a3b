package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "frame", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "extract", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "push", Start: at(40), End: at(50)},
		{ID: 4, Parent: 3, Name: "inner", Start: at(42), End: at(45)},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 60 * time.Millisecond, 2: 30 * time.Millisecond, 3: 7 * time.Millisecond, 4: 3 * time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
}

func TestSelfTimeCountsOverlapOnceAndClips(t *testing.T) {
	spans := []span{
		{ID: 1, Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Start: at(20), End: at(40)},   // overlaps 2
		{ID: 4, Parent: 1, Start: at(90), End: at(120)},  // sticks out
		{ID: 5, Parent: 1, Start: at(200), End: at(210)}, // outside
	}
	if got := selfTimes(spans)[1]; got != 60*time.Millisecond {
		t.Fatalf("self = %v, want 60ms (100 - [10,40) - [90,100))", got)
	}
}

func TestTracerDropsBeyondLimit(t *testing.T) {
	tr := newTracer(2)
	for i := 0; i < 5; i++ {
		tr.record("x", "r", 0, 0, at(i), at(i+1))
	}
	spans, dropped := tr.snapshot()
	if len(spans) != 2 || dropped != 3 {
		t.Fatalf("kept %d dropped %d, want 2 and 3", len(spans), dropped)
	}
	if spans[0].ID == spans[1].ID {
		t.Fatal("span ids must be unique")
	}
}

func TestChromeTraceIsLoadable(t *testing.T) {
	var buf bytes.Buffer
	spans := []span{{ID: 1, Name: "frame", Req: "n/s/0", Start: at(5), End: at(7), TID: 2}}
	if err := writeChrome(&buf, spans, map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	var got struct {
		TraceEvents []chromeEvent     `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.TraceEvents) != 1 || got.TraceEvents[0].Dur != 2000 || got.TraceEvents[0].Ph != "X" || got.OtherData["k"] != "v" {
		t.Fatalf("unexpected trace: %+v", got)
	}
}
