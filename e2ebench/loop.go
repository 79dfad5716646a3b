package main

import "time"

// clock is the time source of the load generator; tests substitute a
// fake one to check due-time accounting without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// loopResult is one generator's account of a timed phase.
type loopResult struct {
	Frames int
	Errors int
	// Latency is per frame, in ms: from the due time on an open loop,
	// from the call on a closed loop, until the call returned.
	Latency []float64
	// Late is how far behind schedule each open-loop frame was issued,
	// in ms (zero when the generator kept up).
	Late []float64
	// Unsent counts open-loop frames that fell due inside the window
	// but were never issued because the system was still busy at the
	// hard stop: the rate was above saturation.
	Unsent int
	// Ends holds when each successful call returned.
	Ends []time.Time
}

func (r *loopResult) merge(o loopResult) {
	r.Frames += o.Frames
	r.Errors += o.Errors
	r.Unsent += o.Unsent
	r.Latency = append(r.Latency, o.Latency...)
	r.Late = append(r.Late, o.Late...)
	r.Ends = append(r.Ends, o.Ends...)
}

// runLoop drives step until the window [start, end) closes or, with
// limit > 0, until limit frames have been issued. With
// period > 0 it is an open loop: frame k falls due at start+k*period
// whatever the system is doing, the generator waits only when it is
// early, and latency counts from the due time, so a stall is charged to
// every frame queued behind it. Frames due before end are still issued
// after end, up to hardEnd. With period == 0 it is a closed loop: the
// next call starts when the previous one returns, until end.
func runLoop(c clock, start, end, hardEnd time.Time, period time.Duration, limit int, step func(k int, due time.Time) error) loopResult {
	var r loopResult
	for k := 0; limit <= 0 || k < limit; k++ {
		now := c.Now()
		var due time.Time
		if period > 0 {
			due = start.Add(time.Duration(k) * period)
			if !due.Before(end) {
				break
			}
			if !now.Before(hardEnd) {
				r.Unsent += int((end.Sub(due) + period - 1) / period)
				break
			}
			if now.Before(due) {
				c.SleepUntil(due)
				now = c.Now()
			}
			r.Late = append(r.Late, ms(now.Sub(due)))
		} else {
			if !now.Before(end) {
				break
			}
			due = now
		}
		err := step(k, due)
		done := c.Now()
		if err != nil {
			r.Errors++
			continue
		}
		r.Frames++
		r.Latency = append(r.Latency, ms(done.Sub(due)))
		r.Ends = append(r.Ends, done)
	}
	return r
}

// windowRate is the median, over the whole windows of length w that
// fit in [start, end), of each window's completion rate: completions
// after its first, over the time from its first to its last. A median
// of windows keeps a burst of outside interference (on a shared host,
// another tenant taking the CPU for a second) from shifting a closed
// loop's throughput the way a mean over the whole phase would.
func windowRate(ends []time.Time, start, end time.Time, w time.Duration) float64 {
	n := int(end.Sub(start) / w)
	if n < 1 {
		return float64(len(ends)) / end.Sub(start).Seconds()
	}
	type win struct {
		n           int
		first, last time.Time
	}
	wins := make([]win, n)
	for _, t := range ends {
		i := int(t.Sub(start) / w)
		if t.Before(start) || i >= n {
			continue
		}
		x := &wins[i]
		if x.n == 0 || t.Before(x.first) {
			x.first = t
		}
		if x.n == 0 || t.After(x.last) {
			x.last = t
		}
		x.n++
	}
	var rates []float64
	for _, x := range wins {
		if x.n >= 2 && x.last.After(x.first) {
			rates = append(rates, float64(x.n-1)/x.last.Sub(x.first).Seconds())
		}
	}
	return median(rates)
}
