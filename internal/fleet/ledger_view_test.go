package fleet

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/walog"
)

// uploadKeys renders every upload of a datacenter as one sortable
// string per upload, so two views compare as multisets.
func uploadKeys(dc *core.Datacenter) []string {
	var keys []string
	for _, app := range dc.KnownApplications() {
		for _, u := range dc.Uploads(app) {
			keys = append(keys, fmt.Sprintf("%s|%d|%d|%d|%d|%t", u.MCName, u.EventID, u.Start, u.End, u.Bits, u.Final))
		}
	}
	sort.Strings(keys)
	return keys
}

// checkDerivedView asserts the fleet-wide Datacenter view is exactly
// the node-prefixed union of every node's ledger, that the ledgers
// hold want uploads in total, and that the shard ledger totals still
// sum to the same count.
func checkDerivedView(t *testing.T, ctrl *Controller, nodes []string, want int, when string) {
	t.Helper()
	union := core.NewDatacenter()
	for _, name := range nodes {
		if err := ctrl.WithNodeDatacenter(name, func(dc *core.Datacenter) {
			for _, app := range dc.KnownApplications() {
				for _, u := range dc.Uploads(app) {
					u.MCName = name + "/" + app
					union.Receive(u)
				}
			}
		}); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	got, wantKeys := uploadKeys(ctrl.Datacenter()), uploadKeys(union)
	if len(wantKeys) != want {
		t.Fatalf("%s: node ledgers hold %d uploads, want %d", when, len(wantKeys), want)
	}
	if !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("%s: derived view differs from the ledger union:\n got %v\nwant %v", when, got, wantKeys)
	}
	total := 0
	for _, s := range ctrl.ShardStats() {
		total += s.Uploads
	}
	if total != want {
		t.Fatalf("%s: shard ledger totals sum to %d, want %d", when, total, want)
	}
}

// TestDatacenterViewAcrossReshard checks the fleet-wide upload view,
// derived from the node ledgers, across a live grow, a shrink that
// folds shards which accepted uploads, and crash recoveries that keep
// and change the shard count.
func TestDatacenterViewAcrossReshard(t *testing.T) {
	stateDir := t.TempDir()
	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl, _, err := OpenController(ControllerConfig{Timeout: 5 * time.Second, Shards: 2, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Serve(ln)

	var agents []*chaosAgent
	var names []string
	mc := saveVersionedMC(t, "mc-1", 11, 1)
	for i := 0; i < 6; i++ {
		c := mkRestartAgent(t, n, fmt.Sprintf("edge-%d", i))
		agents = append(agents, c)
		names = append(names, c.name)
		if err := ctrl.Deploy(c.name, "cam0", mc, -1); err != nil {
			t.Fatalf("deploy to %s: %v", c.name, err)
		}
	}
	// feedAll feeds every agent and waits until each node's ledger
	// holds its ground truth, returning the fleet total.
	feedAll := func(frames int) int {
		for _, c := range agents {
			waitFor(t, c.name+" deployed", func() bool { return len(c.agent.DeployedMCs("cam0")) == 1 })
			c.feed(t, frames)
		}
		want := 0
		for _, c := range agents {
			waitFor(t, c.name+" uploads", func() bool {
				total := -1
				ctrl.WithNodeDatacenter(c.name, func(dc *core.Datacenter) { total = len(uploadKeys(dc)) })
				return total == c.gtCount()
			})
			want += c.gtCount()
		}
		return want
	}

	want := feedAll(8)
	checkDerivedView(t, ctrl, names, want, "before resize")
	if moved, err := ctrl.Resize(4); err != nil || moved == 0 {
		t.Fatalf("grow to 4 shards: moved %d, err %v", moved, err)
	}
	checkDerivedView(t, ctrl, names, want, "after grow")
	// Uploads accepted on the new shards must survive the shrink that
	// retires them, as shard totals folded into shard 0.
	want = feedAll(8)
	checkDerivedView(t, ctrl, names, want, "after grow + feed")
	if _, err := ctrl.Resize(1); err != nil {
		t.Fatal(err)
	}
	checkDerivedView(t, ctrl, names, want, "after shrink")
	for _, c := range agents {
		c.agent.Close()
	}
	ctrl.Crash()

	for _, shards := range []int{1, 3} {
		ctrl, _, err = OpenController(ControllerConfig{Timeout: 5 * time.Second, Shards: shards, StateDir: stateDir})
		if err != nil {
			t.Fatal(err)
		}
		checkDerivedView(t, ctrl, names, want, fmt.Sprintf("after crash + recovery on %d shard(s)", shards))
		ctrl.Crash()
	}
}

// TestRecoveryRejectsLegacyV1History checks that recovery refuses,
// with an error naming the shard directory, a state directory holding
// upload history from the retired protocol-v1 pipe — a kind-10 record,
// or a snapshot or fold carrying a legacy count — instead of dropping
// that history silently.
func TestRecoveryRejectsLegacyV1History(t *testing.T) {
	mustEncode := func(v any) []byte {
		b, err := encodeRec(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name  string
		write func(l *walog.Log) error
	}{
		{"kind-10 record", func(l *walog.Log) error {
			return l.Append(wrecLegacyUpload, mustEncode(struct{ MCName string }{"old-mc"}))
		}},
		{"snapshot legacy count", func(l *walog.Log) error {
			return l.WriteSnapshot(mustEncode(shardSnap{Legacy: 2}))
		}},
		{"fold legacy count", func(l *walog.Log) error {
			return l.Append(wrecFold, mustEncode(foldRec{FromID: 7, Legacy: 1}))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stateDir := t.TempDir()
			dir := filepath.Join(stateDir, shardDirName(0))
			l, err := walog.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.write(l); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, _, err = OpenController(ControllerConfig{StateDir: stateDir})
			if !errors.Is(err, errLegacyHistory) {
				t.Fatalf("recovery error = %v, want errLegacyHistory", err)
			}
			if !strings.Contains(err.Error(), dir) {
				t.Fatalf("recovery error %q does not name the shard directory %s", err, dir)
			}
		})
	}
}
