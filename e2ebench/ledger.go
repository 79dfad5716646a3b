package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// upKey identifies an upload across the wire. The controller's
// OnUpload hook sees only the session's node and the core.Upload, so
// the key is what both ends can name: node, MC (stream-prefixed, as
// the agent's multi-stream node emits it), and the frame range.
type upKey struct {
	Node, MC   string
	Start, End int
}

func keyOf(node string, u core.Upload) upKey {
	return upKey{Node: node, MC: u.MCName, Start: u.Start, End: u.End}
}

// upEntry is everything known about one upload: how often the edge
// emitted it and the controller made it durable, the due time of the
// frame whose ProcessFrame returned it, and when it first became
// durable.
type upEntry struct {
	emitted, durable int
	up               core.Upload
	timed            bool // emitted by a timed frame (not a flush)
	due              time.Time
	durableAt        time.Time
}

// ledger matches what the edges emitted against what the controller's
// OnUpload hook saw. The hook can fire before ProcessFrame has even
// returned the upload to the benchmark (the agent writes it
// synchronously), so either side may create an entry.
type ledger struct {
	mu sync.Mutex
	m  map[upKey]*upEntry
	// waiting counts entries emitted but not yet durable.
	waiting int
}

func newLedger() *ledger { return &ledger{m: make(map[upKey]*upEntry)} }

func (l *ledger) entry(k upKey) *upEntry {
	e := l.m[k]
	if e == nil {
		e = &upEntry{}
		l.m[k] = e
	}
	return e
}

// emit records uploads a ProcessFrame or Flush call returned. due is
// the frame's due time; timed marks samples of the measured phase.
func (l *ledger) emit(node string, ups []core.Upload, due time.Time, timed bool) {
	if len(ups) == 0 {
		return
	}
	l.mu.Lock()
	for _, u := range ups {
		e := l.entry(keyOf(node, u))
		e.emitted++
		if e.emitted == 1 {
			e.up, e.due, e.timed = u, due, timed
			if e.durable == 0 {
				l.waiting++
			}
		}
	}
	l.mu.Unlock()
}

// durable records one OnUpload call.
func (l *ledger) durable(node string, u core.Upload, at time.Time) {
	l.mu.Lock()
	e := l.entry(keyOf(node, u))
	e.durable++
	if e.durable == 1 {
		e.durableAt = at
		if e.emitted > 0 {
			l.waiting--
		}
	}
	l.mu.Unlock()
}

// pending counts uploads emitted but not yet seen durable.
func (l *ledger) pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waiting
}

// durableTime returns when k first became durable.
func (l *ledger) durableTime(k upKey) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.m[k]
	if e == nil || e.durable == 0 {
		return time.Time{}, false
	}
	return e.durableAt, true
}

// timedCounts counts the timed uploads whose frames fell due in
// [from, to), and how many of them became durable.
func (l *ledger) timedCounts(from, to time.Time) (emitted, durable int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.m {
		if e.timed && e.emitted > 0 && !e.due.Before(from) && e.due.Before(to) {
			emitted++
			if e.durable > 0 {
				durable++
			}
		}
	}
	return emitted, durable
}

// emittedCount counts the distinct uploads emitted so far.
func (l *ledger) emittedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.m {
		if e.emitted > 0 {
			n++
		}
	}
	return n
}

// audit is the exactly-once verdict over every upload seen.
type audit struct {
	Emitted     int // distinct uploads the edges returned
	ExactlyOnce int // ... that reached OnUpload exactly once
	Missing     int // emitted, never durable
	Duplicated  int // emitted or durable more than once
	Unexpected  int // durable, or in the controller's ledger, but never emitted
	Mismatched  int // the controller's ledger lacks the emitted record or holds a different one
}

func (a audit) failures() int { return a.Missing + a.Duplicated + a.Unexpected + a.Mismatched }

func (a audit) String() string {
	return fmt.Sprintf("%d emitted, %d exactly once, %d missing, %d duplicated, %d unexpected, %d mismatched",
		a.Emitted, a.ExactlyOnce, a.Missing, a.Duplicated, a.Unexpected, a.Mismatched)
}

// audit checks every upload: emitted once and durable once, and, when
// recs (the controller's recovered ledger) is given, recorded there
// field for field with nothing extra.
func (l *ledger) audit(recs map[upKey]core.Upload) audit {
	l.mu.Lock()
	defer l.mu.Unlock()
	var a audit
	for k, e := range l.m {
		switch {
		case e.emitted == 0:
			a.Unexpected++
			continue
		case e.emitted > 1 || e.durable > 1:
			a.Duplicated++
		case e.durable == 0:
			a.Missing++
		default:
			a.ExactlyOnce++
		}
		a.Emitted++
		if recs != nil {
			if got, ok := recs[k]; !ok || !sameUpload(got, e.up) {
				a.Mismatched++
			}
		}
	}
	for k := range recs {
		if e := l.m[k]; e == nil || e.emitted == 0 {
			a.Unexpected++
		}
	}
	return a
}

func sameUpload(a, b core.Upload) bool {
	return a.MCName == b.MCName && a.EventID == b.EventID && a.Start == b.Start &&
		a.End == b.End && a.Bits == b.Bits && a.Final == b.Final
}

// durableLatencies returns, for timed uploads that became durable, the
// time from their frame's due time to OnUpload, plus their total coded
// bits.
func (l *ledger) durableLatencies() (lat []float64, bits int64, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.m {
		if !e.timed || e.emitted == 0 {
			continue
		}
		bits += e.up.Bits
		n++
		if e.durable > 0 {
			lat = append(lat, ms(e.durableAt.Sub(e.due)))
		}
	}
	return lat, bits, n
}

// emittedBy returns the uploads node emitted on MCs whose names start
// with prefix, ordered by MC name then frame range, the order a
// reference run is compared in.
func (l *ledger) emittedBy(node, prefix string) []core.Upload {
	l.mu.Lock()
	var ups []core.Upload
	for k, e := range l.m {
		if k.Node == node && e.emitted > 0 && strings.HasPrefix(k.MC, prefix) {
			ups = append(ups, e.up)
		}
	}
	l.mu.Unlock()
	sortUploads(ups)
	return ups
}

func sortUploads(ups []core.Upload) {
	sort.Slice(ups, func(i, j int) bool {
		a, b := ups[i], ups[j]
		if a.MCName != b.MCName {
			return a.MCName < b.MCName
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End < b.End
	})
}
