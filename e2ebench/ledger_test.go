package main

import (
	"testing"
	"time"

	"repro/internal/core"
)

func up(mc string, start, end int) core.Upload {
	return core.Upload{MCName: mc, EventID: 1, Start: start, End: end, Bits: int64(100 * (end - start))}
}

func TestKeyDistinguishesNodeMCAndRange(t *testing.T) {
	base := keyOf("n1", up("cam0/mc", 0, 4))
	for _, k := range []upKey{
		keyOf("n2", up("cam0/mc", 0, 4)),
		keyOf("n1", up("cam1/mc", 0, 4)),
		keyOf("n1", up("cam0/mc", 4, 8)),
		keyOf("n1", up("cam0/mc", 0, 3)),
	} {
		if k == base {
			t.Errorf("%+v collides with %+v", k, base)
		}
	}
	u := up("cam0/mc", 0, 4)
	u.Bits, u.EventID = 7, 9 // payload is not part of the identity
	if keyOf("n1", u) != base {
		t.Error("key must depend only on node, MC and range")
	}
}

func TestExactlyOnceMatching(t *testing.T) {
	l := newLedger()
	t0 := time.Unix(0, 0)
	// Durable before the benchmark saw ProcessFrame return: allowed.
	l.durable("n", up("a", 0, 4), t0.Add(time.Millisecond))
	l.emit("n", []core.Upload{up("a", 0, 4), up("a", 4, 8), up("a", 8, 12)}, t0, true)
	if got := l.pending(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	l.durable("n", up("a", 4, 8), t0.Add(3*time.Millisecond))
	l.durable("n", up("a", 4, 8), t0.Add(4*time.Millisecond)) // duplicate delivery
	l.durable("n", up("b", 0, 4), t0)                         // never emitted
	if got := l.pending(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	a := l.audit(nil)
	if a.Emitted != 3 || a.ExactlyOnce != 1 || a.Duplicated != 1 || a.Missing != 1 || a.Unexpected != 1 {
		t.Fatalf("audit = %v", a)
	}
	if a.failures() != 3 {
		t.Fatalf("failures = %d, want 3", a.failures())
	}
	lat, bits, n := l.durableLatencies()
	if n != 3 || bits != 1200 || len(lat) != 2 {
		t.Fatalf("latencies %v bits %d n %d", lat, bits, n)
	}
}

func TestAuditComparesDurableRecord(t *testing.T) {
	l := newLedger()
	u := up("a", 0, 4)
	l.emit("n", []core.Upload{u}, time.Time{}, false)
	l.durable("n", u, time.Time{})
	bad := u
	bad.Bits++
	k := keyOf("n", u)
	if a := l.audit(map[upKey]core.Upload{k: bad}); a.Mismatched != 1 || a.failures() != 1 {
		t.Fatalf("audit = %v, want one mismatch", a)
	}
	if a := l.audit(map[upKey]core.Upload{}); a.Mismatched != 1 {
		t.Fatalf("audit = %v, want the record missing from the ledger", a)
	}
	extra := up("a", 4, 8)
	if a := l.audit(map[upKey]core.Upload{k: u, keyOf("n", extra): extra}); a.Unexpected != 1 || a.failures() != 1 {
		t.Fatalf("audit = %v, want one unexpected ledger record", a)
	}
	if a := l.audit(map[upKey]core.Upload{k: u}); a.failures() != 0 {
		t.Fatalf("audit = %v, want clean", a)
	}
}

func TestEmittedByFiltersAndOrders(t *testing.T) {
	l := newLedger()
	l.emit("n", []core.Upload{up("cam1/m", 0, 4), up("cam0/m", 4, 8), up("cam0/m", 0, 4)}, time.Time{}, false)
	l.emit("other", []core.Upload{up("cam0/m", 8, 12)}, time.Time{}, false)
	got := l.emittedBy("n", "cam0/")
	if len(got) != 2 || got[0].Start != 0 || got[1].Start != 4 {
		t.Fatalf("emittedBy = %+v", got)
	}
}
