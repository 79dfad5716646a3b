package fleet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/walog"
)

// Per-shard WAL record kinds. Every mutation of durable per-node state
// (intent, ledger, canary lifecycle, drift baselines) appends one of
// these to the owning shard's log before the mutation is acknowledged
// anywhere; snapshots compact them. The numbers are on-disk format —
// append only, never renumber.
const (
	// wrecIntent records one intent change: a deploy (MC set), an
	// undeploy or rollback (Remove), with the node's post-op generation.
	wrecIntent uint8 = 1
	// wrecUpload records one deduplicated sequenced upload — the full
	// record, not just the high-water mark, so recovery rebuilds the
	// ledger record for record (a lost acked upload is unrecoverable:
	// the edge retired it from its resend buffer on the ack).
	wrecUpload uint8 = 2
	// wrecSeqReset records a fresh (non-resume) hello zeroing the
	// node's dedup high-water mark for a new edge incarnation.
	wrecSeqReset uint8 = 3
	// wrecCanaryStart opens a canary record for a (node, stream, MC).
	wrecCanaryStart uint8 = 4
	// wrecCanaryEpoch records a reconciliation re-push bumping the
	// shadow slot's install counter.
	wrecCanaryEpoch uint8 = 5
	// wrecCanaryVerdict records a verdict (promoted / rolled_back /
	// expired) or the removal of a canary the edge refused.
	wrecCanaryVerdict uint8 = 6
	// wrecDriftBaseline records a drift baseline freeze for a
	// (node, stream/mc) pair.
	wrecDriftBaseline uint8 = 7
	// wrecMoveIn records a node state arriving on this shard — a
	// Resize re-home, or recovery placing a node on a different shard
	// than the log it was recovered from. The payload is the full node
	// state; replay adopts it wholesale, and the Rehomed counter acts
	// as the incarnation number that picks the winner when several logs
	// hold copies of the same node.
	wrecMoveIn uint8 = 8
	// wrecFold records a retired shard's ledger totals folding into
	// this shard, keyed by the retired log's directory identity so
	// replay never counts a fold twice even if the retired directory
	// survives a crash.
	wrecFold uint8 = 9
	// wrecLegacyUpload is reserved: it recorded one upload received
	// over the retired protocol-v1 pipe. Recovery rejects it (see
	// errLegacyHistory).
	wrecLegacyUpload uint8 = 10
)

// errLegacyHistory fails recovery of a state directory holding upload
// history from the retired protocol-v1 pipe: a kind-10 record, or a
// snapshot or fold with a non-zero legacy count. Those uploads had no
// node identity, so no node ledger can hold them; recovering without
// them would drop acknowledged history silently.
var errLegacyHistory = errors.New("holds legacy protocol-v1 upload history, which this build cannot recover")

// canaryRemoved is the wrecCanaryVerdict outcome for a canary record
// dropped entirely (the edge rejected the shadow deploy) — replay
// deletes the record instead of marking it decided.
const canaryRemoved = "removed"

// intentRec is the wrecIntent payload.
type intentRec struct {
	Node, Stream, Name string
	MC                 []byte
	Threshold          float32
	Version            uint64
	// Gen is the node's deploy generation after the op — absolute, so
	// replay is idempotent and recovered generations are exactly the
	// acknowledged ones (never zero after any intent op).
	Gen    uint64
	Remove bool
}

// uploadRec is the wrecUpload payload.
type uploadRec struct {
	Node string
	Rec  transport.UploadRecord
}

// seqResetRec is the wrecSeqReset payload.
type seqResetRec struct {
	Node string
}

// canaryStartRec is the wrecCanaryStart payload.
type canaryStartRec struct {
	Node, Stream, Name string
	MC                 []byte
	Threshold          float32
	Version            uint64
	IncumbentVersion   uint64
}

// canaryEpochRec is the wrecCanaryEpoch payload.
type canaryEpochRec struct {
	Node, Stream, Name string
	Epoch              uint64
}

// canaryVerdictRec is the wrecCanaryVerdict payload.
type canaryVerdictRec struct {
	Node, Stream, Name string
	Version            uint64
	Outcome, Reason    string
}

// driftBaselineRec is the wrecDriftBaseline payload.
type driftBaselineRec struct {
	Node, Key string
	Baseline  obs.SketchSnapshot
	Version   uint64
}

// moveInRec is the wrecMoveIn payload.
type moveInRec struct {
	Node nodeSnap
}

// foldRec is the wrecFold payload: totals only, since the retired
// shard's uploads moved with their nodes' ledgers.
type foldRec struct {
	FromID uint64
	// Legacy is never written; a non-zero value read from an older
	// state directory is protocol-v1 history (errLegacyHistory).
	Legacy     int
	Uploads    int
	UploadBits int64
}

// upSnap is core.Upload's durable form. Controller-side uploads carry
// no pixel data or uplink delay (both are edge-local), so only the
// accounting fields persist.
type upSnap struct {
	MCName  string
	EventID uint64
	Start   int
	End     int
	Bits    int64
	Final   bool
}

func toUpSnap(u core.Upload) upSnap {
	return upSnap{MCName: u.MCName, EventID: u.EventID, Start: u.Start, End: u.End, Bits: u.Bits, Final: u.Final}
}

func (u upSnap) toUpload() core.Upload {
	return core.Upload{MCName: u.MCName, EventID: u.EventID, Start: u.Start, End: u.End, Bits: u.Bits, Final: u.Final}
}

func dcSnap(dc *core.Datacenter) []upSnap {
	var out []upSnap
	apps := dc.KnownApplications()
	sort.Strings(apps)
	for _, app := range apps {
		for _, u := range dc.Uploads(app) {
			out = append(out, toUpSnap(u))
		}
	}
	return out
}

func dcFromSnap(ups []upSnap) *core.Datacenter {
	dc := core.NewDatacenter()
	for _, u := range ups {
		dc.Receive(u.toUpload())
	}
	return dc
}

// depSnap is one intent entry's durable form.
type depSnap struct {
	Stream, Name string
	MC           []byte
	Threshold    float32
	Version      uint64
}

// driftSnap is driftState's durable form, keyed "stream/mc".
type driftSnap struct {
	Key         string
	Baseline    obs.SketchSnapshot
	BaselineSet bool
	Prev, Last  obs.SketchSnapshot
	Version     uint64
	PSI, KS     float64
	Windows     int
	Drifted     bool
}

// canarySnap is canaryState's durable form, keyed "stream/mc".
type canarySnap struct {
	Key                         string
	MC                          []byte
	Threshold                   float32
	Version, IncumbentVersion   uint64
	Epoch, SeenEpoch            uint64
	BaseLive, BaseShadow        obs.SketchSnapshot
	LastLive, LastShadow        obs.SketchSnapshot
	Heartbeats                  int
	AgreePSI, Spread, PassDelta float64
	Outcome, Reason             string
}

// nodeSnap is nodeState's durable form — what snapshots and move-in
// records carry.
type nodeSnap struct {
	Name         string
	Gen, LastSeq uint64
	Intent       []depSnap
	Uploads      []upSnap
	Evicted      int
	Reconnects   int
	// Rehomed doubles as the node's incarnation number: every move
	// between logs (a Resize re-home, or recovery placing the node on a
	// different shard than its source log) bumps it, so when several
	// logs hold copies of the same node, the highest Rehomed is the
	// newest and wins.
	Rehomed int
	Drift   []driftSnap
	Canary  []canarySnap
}

func toNodeSnap(name string, st *nodeState) nodeSnap {
	ns := nodeSnap{
		Name: name, Gen: st.gen, LastSeq: st.lastSeq,
		Evicted: st.evicted, Reconnects: st.reconnects, Rehomed: st.rehomed,
		Uploads: dcSnap(st.dc),
	}
	streams := make([]string, 0, len(st.intent))
	for stream := range st.intent {
		streams = append(streams, stream)
	}
	sort.Strings(streams)
	for _, stream := range streams {
		mcs := st.intent[stream]
		names := make([]string, 0, len(mcs))
		for n := range mcs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			dep := mcs[n]
			ns.Intent = append(ns.Intent, depSnap{Stream: stream, Name: n, MC: dep.mc, Threshold: dep.threshold, Version: dep.version})
		}
	}
	keys := make([]string, 0, len(st.drift))
	for k := range st.drift {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ds := st.drift[k]
		ns.Drift = append(ns.Drift, driftSnap{
			Key: k, Baseline: ds.baseline, BaselineSet: ds.baselineSet,
			Prev: ds.prev, Last: ds.last, Version: ds.version,
			PSI: ds.psi, KS: ds.ks, Windows: ds.windows, Drifted: ds.drifted,
		})
	}
	keys = keys[:0]
	for k := range st.canary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cs := st.canary[k]
		ns.Canary = append(ns.Canary, canarySnap{
			Key: k, MC: cs.mc, Threshold: cs.threshold,
			Version: cs.version, IncumbentVersion: cs.incumbentVersion,
			Epoch: cs.epoch, SeenEpoch: cs.seenEpoch,
			BaseLive: cs.baseLive, BaseShadow: cs.baseShadow,
			LastLive: cs.lastLive, LastShadow: cs.lastShadow,
			Heartbeats: cs.heartbeats,
			AgreePSI:   cs.agreePSI, Spread: cs.spread, PassDelta: cs.passDelta,
			Outcome: cs.outcome, Reason: cs.reason,
		})
	}
	return ns
}

func nodeFromSnap(ns nodeSnap) *nodeState {
	st := &nodeState{
		intent:  make(map[string]map[string]deployment),
		gen:     ns.Gen,
		lastSeq: ns.LastSeq,
		dc:      dcFromSnap(ns.Uploads),
		evicted: ns.Evicted, reconnects: ns.Reconnects, rehomed: ns.Rehomed,
	}
	for _, d := range ns.Intent {
		if st.intent[d.Stream] == nil {
			st.intent[d.Stream] = make(map[string]deployment)
		}
		st.intent[d.Stream][d.Name] = deployment{mc: d.MC, threshold: d.Threshold, version: d.Version}
	}
	for _, d := range ns.Drift {
		if st.drift == nil {
			st.drift = make(map[string]*driftState)
		}
		st.drift[d.Key] = &driftState{
			baseline: d.Baseline, baselineSet: d.BaselineSet,
			prev: d.Prev, last: d.Last, version: d.Version,
			psi: d.PSI, ks: d.KS, windows: d.Windows, drifted: d.Drifted,
		}
	}
	for _, cs := range ns.Canary {
		if st.canary == nil {
			st.canary = make(map[string]*canaryState)
		}
		st.canary[cs.Key] = &canaryState{
			mc: cs.MC, threshold: cs.Threshold,
			version: cs.Version, incumbentVersion: cs.IncumbentVersion,
			epoch: cs.Epoch, seenEpoch: cs.SeenEpoch,
			baseLive: cs.BaseLive, baseShadow: cs.BaseShadow,
			lastLive: cs.LastLive, lastShadow: cs.LastShadow,
			heartbeats: cs.Heartbeats,
			agreePSI:   cs.AgreePSI, spread: cs.Spread, passDelta: cs.PassDelta,
			outcome: cs.Outcome, reason: cs.Reason,
		}
	}
	return st
}

// shardSnap is one shard's snapshot payload: the ledger totals plus
// every node record (each holding its node's uploads), compacting the
// wal.
type shardSnap struct {
	// Legacy is never written; a non-zero value read from an older
	// snapshot is protocol-v1 history (errLegacyHistory).
	Legacy     int
	Uploads    int
	UploadBits int64
	Nodes      []nodeSnap
	// Folded lists the directory identities of retired shard logs whose
	// ledger totals this shard has absorbed: replay skips (and deletes)
	// a directory in this list, so a crash between a fold and the
	// retired directory's removal cannot double-count its history.
	Folded []uint64
}

func encodeRec(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeRec(b []byte, into any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(into)
}

// persist appends one record to the shard's wal (no-op without a
// state dir). Callers hold sh.mu. It returns false only on an append
// failure — the caller decides whether the op is refusable (uploads
// withhold their ack so the edge retransmits) or best-effort.
//
// Compaction runs BEFORE the append, never after. At entry, every
// previously appended record has been applied to shard state (each
// call site applies-then-persists or persists-then-applies within one
// critical section), so a snapshot taken here captures exactly the
// compacted records. The new record then lands in the fresh wal and
// replays on top of the snapshot. Compacting after the append would
// be wrong for persist-then-apply sites (acceptUpload): the snapshot
// would capture state without the just-logged record, then delete the
// old wal holding it — losing an accepted upload. The converse —
// apply-then-persist sites whose record lands after a snapshot that
// already reflects it — is safe because every record kind replays
// idempotently (absolute generations, max-merged epochs, overwritten
// baselines, identity-keyed folds, seq-deduped uploads).
func (sh *shard) persist(kind uint8, v any) bool {
	if sh.wal == nil {
		return true
	}
	sh.maybeSnapshotLocked()
	payload, err := encodeRec(v)
	if err == nil {
		err = sh.wal.Append(kind, payload)
	}
	if err == nil && sh.c.cfg.WALSync {
		err = sh.wal.Sync()
	}
	if err != nil {
		sh.c.cfg.Log.Error("fleet: wal append failed",
			"shard", sh.id, "kind", kind, "err", err)
		return false
	}
	return true
}

// maybeSnapshotLocked compacts the wal once enough records accumulate
// since the last snapshot. Callers hold sh.mu.
func (sh *shard) maybeSnapshotLocked() {
	if sh.wal == nil || sh.c.cfg.SnapshotEvery < 0 {
		return
	}
	if sh.wal.Pending() >= sh.c.cfg.SnapshotEvery {
		if err := sh.snapshotLocked(); err != nil {
			sh.c.cfg.Log.Error("fleet: wal snapshot failed", "shard", sh.id, "err", err)
		}
	}
}

// snapshotLocked writes the shard's full state as a snapshot,
// compacting the wal. Callers hold sh.mu.
func (sh *shard) snapshotLocked() error {
	if sh.wal == nil {
		return nil
	}
	snap := shardSnap{
		Uploads: sh.uploads, UploadBits: sh.uploadBits,
		Folded: append([]uint64(nil), sh.folded...),
	}
	names := make([]string, 0, len(sh.nodes))
	for name := range sh.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		snap.Nodes = append(snap.Nodes, toNodeSnap(name, sh.nodes[name]))
	}
	payload, err := encodeRec(snap)
	if err != nil {
		return err
	}
	return sh.wal.WriteSnapshot(payload)
}

// replayState is one log directory's recovered contents.
type replayState struct {
	dirID   uint64
	nodes   map[string]*nodeState
	uploads int
	bits    int64
	folded  []uint64
	records int
}

// replayLog rebuilds a shard's state from its snapshot and wal.
func replayLog(l *walog.Log) (*replayState, error) {
	rs := &replayState{
		dirID: l.ID(),
		nodes: make(map[string]*nodeState),
	}
	if snap := l.Snapshot(); snap != nil {
		var ss shardSnap
		if err := decodeRec(snap, &ss); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		if ss.Legacy != 0 {
			return nil, fmt.Errorf("snapshot: %w (%d uploads)", errLegacyHistory, ss.Legacy)
		}
		rs.uploads, rs.bits = ss.Uploads, ss.UploadBits
		rs.folded = append(rs.folded, ss.Folded...)
		for _, ns := range ss.Nodes {
			rs.nodes[ns.Name] = nodeFromSnap(ns)
		}
	}
	for i, rec := range l.Records() {
		if err := rs.apply(rec.Kind, rec.Payload); err != nil {
			return nil, fmt.Errorf("record %d (kind %d): %w", i, rec.Kind, err)
		}
		rs.records++
	}
	return rs, nil
}

// node returns (creating if needed) a node state being rebuilt.
func (rs *replayState) node(name string) *nodeState {
	st := rs.nodes[name]
	if st == nil {
		st = &nodeState{
			intent: make(map[string]map[string]deployment),
			dc:     core.NewDatacenter(),
		}
		rs.nodes[name] = st
	}
	return st
}

func (rs *replayState) apply(kind uint8, payload []byte) error {
	switch kind {
	case wrecIntent:
		var r intentRec
		if err := decodeRec(payload, &r); err != nil {
			return err
		}
		st := rs.node(r.Node)
		if r.Remove {
			delete(st.intent[r.Stream], r.Name)
		} else {
			if st.intent[r.Stream] == nil {
				st.intent[r.Stream] = make(map[string]deployment)
			}
			st.intent[r.Stream][r.Name] = deployment{mc: r.MC, threshold: r.Threshold, version: r.Version}
		}
		if r.Gen > st.gen {
			st.gen = r.Gen
		}
	case wrecUpload:
		var r uploadRec
		if err := decodeRec(payload, &r); err != nil {
			return err
		}
		st := rs.node(r.Node)
		up := r.Rec.ToUpload()
		if r.Rec.Seq != 0 {
			if r.Rec.Seq <= st.lastSeq {
				return nil // replay is idempotent against duplicated records
			}
			st.lastSeq = r.Rec.Seq
		}
		st.dc.Receive(up)
		rs.uploads++
		rs.bits += up.Bits
	case wrecLegacyUpload:
		return errLegacyHistory
	case wrecSeqReset:
		var r seqResetRec
		if err := decodeRec(payload, &r); err != nil {
			return err
		}
		rs.node(r.Node).lastSeq = 0
	case wrecCanaryStart:
		var r canaryStartRec
		if err := decodeRec(payload, &r); err != nil {
			return err
		}
		st := rs.node(r.Node)
		if st.canary == nil {
			st.canary = make(map[string]*canaryState)
		}
		st.canary[r.Stream+"/"+r.Name] = &canaryState{
			mc: r.MC, threshold: r.Threshold, version: r.Version,
			incumbentVersion: r.IncumbentVersion, epoch: 1,
		}
	case wrecCanaryEpoch:
		var r canaryEpochRec
		if err := decodeRec(payload, &r); err != nil {
			return err
		}
		st := rs.node(r.Node)
		if cs := st.canary[r.Stream+"/"+r.Name]; cs != nil && r.Epoch > cs.epoch {
			cs.epoch = r.Epoch
		}
	case wrecCanaryVerdict:
		var r canaryVerdictRec
		if err := decodeRec(payload, &r); err != nil {
			return err
		}
		st := rs.node(r.Node)
		key := r.Stream + "/" + r.Name
		cs := st.canary[key]
		if cs == nil || cs.version != r.Version {
			return nil // verdict for a replaced record: ignore
		}
		if r.Outcome == canaryRemoved {
			delete(st.canary, key)
			return nil
		}
		cs.outcome, cs.reason = r.Outcome, r.Reason
	case wrecDriftBaseline:
		var r driftBaselineRec
		if err := decodeRec(payload, &r); err != nil {
			return err
		}
		st := rs.node(r.Node)
		if st.drift == nil {
			st.drift = make(map[string]*driftState)
		}
		st.drift[r.Key] = &driftState{
			baseline: r.Baseline, baselineSet: true,
			prev: r.Baseline, last: r.Baseline, version: r.Version,
		}
	case wrecMoveIn:
		var r moveInRec
		if err := decodeRec(payload, &r); err != nil {
			return err
		}
		// Wholesale replacement: the moved-in state is the node's whole
		// truth at move time; anything this log accumulated before is a
		// stale earlier incarnation (A→B→A re-homes land here).
		rs.nodes[r.Node.Name] = nodeFromSnap(r.Node)
	case wrecFold:
		var r foldRec
		if err := decodeRec(payload, &r); err != nil {
			return err
		}
		// Folds are keyed by the retired store's identity: a record whose
		// source this log already absorbed (the snapshot preceding it was
		// taken after the fold applied) must not double-count.
		for _, id := range rs.folded {
			if id == r.FromID {
				return nil
			}
		}
		if r.Legacy != 0 {
			return fmt.Errorf("fold: %w (%d uploads)", errLegacyHistory, r.Legacy)
		}
		rs.uploads += r.Uploads
		rs.bits += r.UploadBits
		rs.folded = append(rs.folded, r.FromID)
	default:
		return fmt.Errorf("unknown wal record kind %d", kind)
	}
	return nil
}

// RecoveryStats summarizes a controller's state recovery from its
// StateDir: what was replayed, what it cost, and what was repaired.
type RecoveryStats struct {
	// Dirs is the number of shard log directories found; FoldedDirs
	// how many of them were retired (out of range for the configured
	// shard count, or already folded) and absorbed into shard 0.
	Dirs       int
	FoldedDirs int
	// Nodes is the number of node records recovered (after resolving
	// duplicates across logs by incarnation).
	Nodes int
	// RecordsReplayed counts wal records applied across all logs
	// (snapshot contents not included).
	RecordsReplayed int
	// SnapshotBytes totals the snapshot files loaded; TornBytes totals
	// the torn wal tails truncated on open.
	SnapshotBytes int64
	TornBytes     int64
	// Replay is the wall-clock cost of the whole recovery.
	Replay time.Duration
}

// shardDirName names shard i's log directory under StateDir.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// recoverState replays every shard log directory under cfg.StateDir
// into the controller's shards, creating directories for shards that
// lack one. Called once from OpenController before the controller
// serves, so no locks are needed; the controller's ring and shard
// slice are already built for cfg.Shards.
//
// Ordering contract with Resize re-homing: node records recovered from
// a log whose directory index no longer matches the current ring are
// re-homed at recovery — the winning copy's incarnation (Rehomed) is
// bumped and a move-in record lands in the new owner's wal before any
// snapshot is written, so a crash at any point leaves the newest
// incarnation durable exactly once. Retired directories (index beyond
// the configured shard count) have their ledger totals folded into
// shard 0 via a fold record keyed by directory identity, then are
// deleted; the identity list in shard 0's state makes the fold
// idempotent if the deletion is lost.
func (c *Controller) recoverState() (*RecoveryStats, error) {
	start := time.Now()
	stats := &RecoveryStats{}
	root := c.cfg.StateDir
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	idxs, paths, err := walog.ListDirs(root, "shard-")
	if err != nil {
		return nil, err
	}

	type recovered struct {
		idx  int
		path string
		log  *walog.Log
		rs   *replayState
	}
	var dirs []recovered
	for i, path := range paths {
		l, err := walog.Open(path)
		if err != nil {
			return nil, fmt.Errorf("fleet: open shard log %s: %w", path, err)
		}
		rs, err := replayLog(l)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("fleet: replay %s: %w", path, err)
		}
		dirs = append(dirs, recovered{idx: idxs[i], path: path, log: l, rs: rs})
		stats.SnapshotBytes += l.SnapshotSize()
		stats.TornBytes += l.TornBytes()
	}
	stats.Dirs = len(dirs)

	// Union of folded directory identities: a directory in the set has
	// already been absorbed — skip its contents, delete it.
	folded := make(map[uint64]bool)
	for _, d := range dirs {
		for _, id := range d.rs.folded {
			folded[id] = true
		}
	}
	kept := dirs[:0]
	for _, d := range dirs {
		if folded[d.rs.dirID] {
			d.log.Close()
			_ = os.RemoveAll(d.path)
			stats.FoldedDirs++
			continue
		}
		kept = append(kept, d)
		stats.RecordsReplayed += d.rs.records
	}
	dirs = kept

	// Attach logs and totals: in-range directories map to their shard;
	// out-of-range ones (a previous run had more shards) retire — totals
	// fold into shard 0, recorded durably before deletion.
	shard0 := c.shards[0]
	var retired []recovered
	for _, d := range dirs {
		if d.idx < len(c.shards) {
			sh := c.shards[d.idx]
			sh.wal = d.log
			sh.uploads, sh.uploadBits = d.rs.uploads, d.rs.bits
			if d.idx == 0 {
				sh.folded = d.rs.folded
			}
			continue
		}
		retired = append(retired, d)
	}
	// Shards without a directory (first boot, or the count grew).
	for i, sh := range c.shards {
		if sh.wal != nil {
			continue
		}
		l, err := walog.Open(filepath.Join(root, shardDirName(i)))
		if err != nil {
			return nil, fmt.Errorf("fleet: create shard log %d: %w", i, err)
		}
		sh.wal = l
	}
	for _, d := range retired {
		fold := foldRec{FromID: d.rs.dirID, Uploads: d.rs.uploads, UploadBits: d.rs.bits}
		if ok := func() bool {
			payload, err := encodeRec(fold)
			if err == nil {
				err = shard0.wal.Append(wrecFold, payload)
			}
			if err == nil {
				err = shard0.wal.Sync()
			}
			if err != nil {
				c.cfg.Log.Error("fleet: recovery fold append failed", "dir", d.path, "err", err)
				return false
			}
			return true
		}(); !ok {
			// Leave the directory in place: without a durable fold
			// record, deleting it would lose its history.
			d.log.Close()
			continue
		}
		shard0.uploads += d.rs.uploads
		shard0.uploadBits += d.rs.bits
		shard0.folded = append(shard0.folded, d.rs.dirID)
		stats.FoldedDirs++
	}

	// Resolve node winners across logs by incarnation (Rehomed): every
	// move between logs bumps it, so the highest copy is the newest.
	// Ties break toward higher generation, then lower directory index —
	// deterministic, and unreachable when move ordering held.
	type winner struct {
		st     *nodeState
		srcIdx int
	}
	winners := make(map[string]winner)
	consider := func(idx int, name string, st *nodeState) {
		w, ok := winners[name]
		if !ok || st.rehomed > w.st.rehomed ||
			(st.rehomed == w.st.rehomed && (st.gen > w.st.gen ||
				(st.gen == w.st.gen && idx < w.srcIdx))) {
			winners[name] = winner{st: st, srcIdx: idx}
		}
	}
	for _, d := range dirs {
		if d.idx >= len(c.shards) {
			// Retired: its nodes moved out before retirement (Resize
			// empties a shard before folding it), so copies here are
			// stale — but consider them anyway for crash windows where
			// the fold record committed and the move-in lost the race.
			for name, st := range d.rs.nodes {
				consider(d.idx, name, st)
			}
			continue
		}
		for name, st := range d.rs.nodes {
			consider(d.idx, name, st)
		}
	}

	// Place winners under the current ring. A node landing on a shard
	// other than its source log is a re-home: bump the incarnation and
	// write a durable move-in to the new owner before any compaction,
	// so no crash can leave two logs claiming the same incarnation.
	names := make([]string, 0, len(winners))
	for name := range winners {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := winners[name]
		target := c.ring.owner(name)
		sh := c.shards[target]
		if w.srcIdx != target {
			w.st.rehomed++
			payload, err := encodeRec(moveInRec{Node: toNodeSnap(name, w.st)})
			if err == nil {
				err = sh.wal.Append(wrecMoveIn, payload)
			}
			if err == nil {
				err = sh.wal.Sync()
			}
			if err != nil {
				return nil, fmt.Errorf("fleet: recovery move-in %q to shard %d: %w", name, target, err)
			}
		}
		sh.nodes[name] = w.st
	}
	stats.Nodes = len(winners)

	// Compact: with move-ins and folds durable, snapshot order across
	// shards no longer matters. Then retire the absorbed directories.
	for _, sh := range c.shards {
		if err := sh.snapshotLocked(); err != nil {
			c.cfg.Log.Error("fleet: recovery snapshot failed", "shard", sh.id, "err", err)
		}
	}
	for _, d := range retired {
		if d.log != nil {
			d.log.Close()
		}
		_ = os.RemoveAll(d.path)
	}

	stats.Replay = time.Since(start)
	c.recovery = stats
	return stats, nil
}
