package main

import (
	"errors"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a step "runs".
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time { return c.t }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	c := &fakeClock{t: at(0)}
	cost := map[int]time.Duration{2: 35 * time.Millisecond}
	r := runLoop(c, at(0), at(60), at(1000), 10*time.Millisecond, 0, func(k int, due time.Time) error {
		d, ok := cost[k]
		if !ok {
			d = 5 * time.Millisecond
		}
		c.t = c.t.Add(d)
		return nil
	})
	// Frame 2 (due 20) stalls until 55: frame 3 (due 30) starts 25ms
	// late and its latency includes the wait; frame 4 catches up.
	wantLat := []float64{5, 5, 35, 30, 25, 20}
	wantLate := []float64{0, 0, 0, 25, 20, 15}
	if r.Frames != 6 || len(r.Latency) != 6 {
		t.Fatalf("frames %d latencies %v", r.Frames, r.Latency)
	}
	for i := range wantLat {
		if r.Latency[i] != wantLat[i] || r.Late[i] != wantLate[i] {
			t.Errorf("frame %d: latency %v late %v, want %v and %v", i, r.Latency[i], r.Late[i], wantLat[i], wantLate[i])
		}
	}
	if r.Unsent != 0 {
		t.Errorf("unsent = %d", r.Unsent)
	}
}

func TestOpenLoopWaitsWhenEarlyAndCountsUnsent(t *testing.T) {
	c := &fakeClock{t: at(0)}
	r := runLoop(c, at(0), at(100), at(150), 10*time.Millisecond, 0, func(k int, due time.Time) error {
		if k == 1 {
			c.t = c.t.Add(200 * time.Millisecond) // blows through the hard stop
			return errors.New("boom")
		}
		c.t = c.t.Add(time.Millisecond)
		return nil
	})
	if r.Frames != 1 || r.Errors != 1 {
		t.Fatalf("frames %d errors %d", r.Frames, r.Errors)
	}
	if r.Late[0] != 0 || r.Late[1] != 0 {
		t.Fatalf("an early generator must wait for the due time: late %v", r.Late)
	}
	// Frames 2..9 were due inside the window but never issued.
	if r.Unsent != 8 {
		t.Fatalf("unsent = %d, want 8", r.Unsent)
	}
}

func TestClosedLoopCountsFromCall(t *testing.T) {
	c := &fakeClock{t: at(0)}
	r := runLoop(c, at(0), at(20), at(20), 0, 0, func(k int, due time.Time) error {
		if !due.Equal(c.t) {
			t.Errorf("closed-loop due %v is not the call time %v", due, c.t)
		}
		c.t = c.t.Add(7 * time.Millisecond)
		return nil
	})
	if r.Frames != 3 || r.Latency[2] != 7 || len(r.Late) != 0 {
		t.Fatalf("closed loop: %+v", r)
	}
}

func TestLoopStopsAtLimit(t *testing.T) {
	c := &fakeClock{t: at(0)}
	calls := 0
	r := runLoop(c, at(0), at(1000), at(1000), 0, 4, func(int, time.Time) error {
		calls++
		c.t = c.t.Add(time.Millisecond)
		return nil
	})
	if calls != 4 || r.Frames != 4 {
		t.Fatalf("calls %d frames %d, want 4", calls, r.Frames)
	}
}

func TestWindowRateIsMedianOfWindows(t *testing.T) {
	var ends []time.Time
	// Ten 100ms windows completing every 10ms, except a stalled one
	// completing every 40ms.
	for w := 0; w < 10; w++ {
		step := 10
		if w == 3 {
			step = 40
		}
		for ms := 0; ms < 100; ms += step {
			ends = append(ends, at(w*100+ms))
		}
	}
	if got := windowRate(ends, at(0), at(1000), 100*time.Millisecond); got != 100 {
		t.Fatalf("windowRate = %v, want 100/s (the stalled window is an outlier)", got)
	}
	if got := windowRate(ends[:3], at(0), at(50), 100*time.Millisecond); got != 60 {
		t.Fatalf("short phase: windowRate = %v, want the plain rate 60/s", got)
	}
}
