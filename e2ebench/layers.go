package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/filter"
	"repro/internal/mobilenet"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/vision"
	"repro/internal/walog"
)

// reconcileTolerance is how far the per-frame layer sum may sit from
// core.process_frame, as a share of it, for the layers to count as
// accounting for the frame. The remainder is core's own work (frame
// decode, retention, event bookkeeping, stats) plus replay effects
// such as colder caches.
const reconcileTolerance = 0.25

// replayer drives each stream's first frames through the layers'
// public entry points next to the black-box core.EdgeNode.ProcessFrame
// of the reference run, recording a span per call:
//
//	frame
//	├── core.process_frame          (EdgeNode.ProcessFrame)
//	│   └── archive.append          (archive.Store.Append, via core.FrameArchive)
//	└── replay
//	    ├── archive.encode          (codec.Encoder.Encode at the archive bitrate)
//	    ├── mobilenet.extract       (Extractor.ExtractMulti)
//	    ├── filter.push             (MC.Push, one per MC)
//	    ├── event.smoother          (Smoother.Push + Detector.Observe, per classification)
//	    └── codec.segment_encode    (codec.EncodeSegment, per upload the frame returned)
//
// The replay feeds the same pixels to fresh instances of each layer,
// so its calls do the work ProcessFrame did for that frame.
type replayer struct {
	frames int // traced frames per stream
	tr     *tracer
	obs    *obs.Observer // attached to the reference nodes, for the cross-check

	mu              sync.Mutex
	classifications int
	passes          int
	segments        int
	segmentBits     int64
	codecMismatch   int // replayed segment encode disagreed with the upload's bits
	archiveMismatch int // replayed archive encode disagreed with the appended bits
}

type streamReplay struct {
	rp     *replayer
	req    string
	tid    int
	w, h   int
	upRate float64
	node   *core.EdgeNode
	pool   func(i int) *vision.Image

	ext     *mobilenet.Extractor
	stages  []string
	mcs     []*filter.MC
	thr     []float32
	smooth  []*event.Smoother
	det     []*event.Detector
	archEnc *codec.Encoder
	arch    *tracedArchive
	xbuf    *tensor.Tensor
}

// tracedArchive is the core.FrameArchive the traced reference node
// appends to: an archive.Store with a span around every Append.
type tracedArchive struct {
	*archive.Store
	tr       *tracer
	parent   uint64
	req      string
	tid      int
	lastBits int64
}

func (a *tracedArchive) Append(img *vision.Image, bits int64) (int, error) {
	t0 := time.Now()
	i, err := a.Store.Append(img, bits)
	a.tr.record("archive.append", a.req, a.parent, a.tid, t0, time.Now())
	a.lastBits = bits
	return i, err
}

// stream prepares the replay of stream s of e alongside node, which
// must not have processed a frame yet.
func (rp *replayer) stream(b *bench, e *edge, s int, node *core.EdgeNode) (*streamReplay, error) {
	cfg := node.Config()
	sr := &streamReplay{
		rp: rp, req: e.name + "/" + e.streams[s], tid: 10 + s, w: cfg.FrameWidth, h: cfg.FrameHeight,
		upRate: cfg.UploadBitrate, node: node, ext: b.base.NewExtractor(),
		pool: func(i int) *vision.Image { return e.frame(s, i) },
	}
	seen := map[string]bool{}
	for _, d := range e.mcs {
		mc, err := filter.NewMC(d.spec, b.base, cfg.FrameWidth, cfg.FrameHeight)
		if err != nil {
			return nil, err
		}
		sr.mcs = append(sr.mcs, mc)
		sr.thr = append(sr.thr, d.threshold)
		sr.smooth = append(sr.smooth, event.NewSmoother(cfg.SmoothN, cfg.SmoothK))
		sr.det = append(sr.det, event.NewDetector())
		if !seen[mc.Stage()] {
			seen[mc.Stage()] = true
			sr.stages = append(sr.stages, mc.Stage())
		}
	}
	if cfg.ArchiveToDisk {
		st, err := archive.Open(archive.Config{
			Dir:   filepath.Join(b.root, "replay-archive", e.name, e.streams[s]),
			Width: cfg.FrameWidth, Height: cfg.FrameHeight, FPS: cfg.FPS,
		})
		if err != nil {
			return nil, err
		}
		sr.arch = &tracedArchive{Store: st, tr: rp.tr, tid: sr.tid}
		if err := node.AttachArchive(sr.arch); err != nil {
			st.Close()
			return nil, err
		}
		sr.archEnc = codec.NewEncoder(codec.Config{
			Width: cfg.FrameWidth, Height: cfg.FrameHeight, FPS: cfg.FPS, TargetBitrate: cfg.ArchiveBitrate,
		})
	}
	return sr, nil
}

func (sr *streamReplay) close() {
	if sr.arch != nil {
		sr.arch.Store.Close()
	}
}

// frame processes frame i on the reference node and replays it
// through the layers, returning the node's uploads.
func (sr *streamReplay) frame(i int, img *vision.Image) ([]core.Upload, error) {
	tr := sr.rp.tr
	req := sr.req + "/" + strconv.Itoa(i)
	root, pf := tr.id(), tr.id()
	if sr.arch != nil {
		sr.arch.parent, sr.arch.req = pf, req
	}
	t0 := time.Now()
	ups, err := sr.node.ProcessFrame(img)
	t1 := time.Now()
	tr.add(span{ID: pf, Parent: root, Name: "core.process_frame", Req: req, Start: t0, End: t1, TID: sr.tid})
	if err != nil {
		return nil, err
	}
	rep := tr.id()
	rec := func(name string, start time.Time) {
		tr.record(name, req, rep, sr.tid, start, time.Now())
	}
	var codecBad, archBad, cls, pass int
	var segBits int64
	if sr.archEnc != nil {
		ta := time.Now()
		out := sr.archEnc.Encode(img)
		rec("archive.encode", ta)
		if out.Bits != sr.arch.lastBits {
			archBad++
		}
	}
	sr.xbuf = img.ToTensorInto(sr.xbuf)
	te := time.Now()
	maps, err := sr.ext.ExtractMulti(sr.xbuf, sr.stages)
	if err != nil {
		return nil, err
	}
	rec("mobilenet.extract", te)
	for j, mc := range sr.mcs {
		tp := time.Now()
		out := mc.Push(maps[mc.Stage()])
		rec("filter.push", tp)
		for _, c := range out {
			positive := c.Prob >= sr.thr[j]
			cls++
			if positive {
				pass++
			}
			ts := time.Now()
			for _, d := range sr.smooth[j].Push(positive) {
				sr.det[j].Observe(d.Positive)
			}
			rec("event.smoother", ts)
		}
	}
	for _, u := range ups {
		frames := make([]*vision.Image, 0, u.End-u.Start)
		for f := u.Start; f < u.End; f++ {
			frames = append(frames, sr.pool(f))
		}
		tc := time.Now()
		bits, _ := codec.EncodeSegment(codec.Config{Width: sr.w, Height: sr.h, FPS: fps, TargetBitrate: sr.upRate}, frames)
		rec("codec.segment_encode", tc)
		segBits += bits
		if bits != u.Bits {
			codecBad++
		}
	}
	t2 := time.Now()
	tr.add(span{ID: rep, Parent: root, Name: "replay", Req: req, Start: t1, End: t2, TID: sr.tid})
	tr.add(span{ID: root, Name: "frame", Req: req, Start: t0, End: t2, TID: sr.tid})
	rp := sr.rp
	rp.mu.Lock()
	rp.classifications += cls
	rp.passes += pass
	rp.segments += len(ups)
	rp.segmentBits += segBits
	rp.codecMismatch += codecBad
	rp.archiveMismatch += archBad
	rp.mu.Unlock()
	return ups, nil
}

// named is one reported metric.
type named struct {
	name  string
	value float64
	unit  string
	note  string
}

// spanStats groups span durations (µs) by name.
func spanStats(spans []span) map[string][]float64 {
	m := make(map[string][]float64)
	for _, s := range spans {
		m[s.Name] = append(m[s.Name], us(s.dur()))
	}
	return m
}

// reconciliation compares, frame by frame, core.process_frame with the
// sum of the layer self-times measured for the same frame.
type reconciliation struct {
	frames         int
	coreSelfUS     []float64 // per frame: process_frame minus the layer sum, floored at 0
	unaccountedSum time.Duration
	processSum     time.Duration
}

func (r reconciliation) share() float64 {
	if r.processSum == 0 {
		return 0
	}
	return float64(r.unaccountedSum) / float64(r.processSum)
}

func (r reconciliation) ok() bool {
	s := r.share()
	return s >= -reconcileTolerance && s <= reconcileTolerance
}

func reconcile(spans []span) reconciliation {
	self := selfTimes(spans)
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	// layer[root] sums the self-times of the layer spans under one
	// frame: the replay's children and what nests in process_frame.
	layer := make(map[uint64]time.Duration)
	pf := make(map[uint64]time.Duration)
	for _, s := range spans {
		parent, ok := byID[s.Parent]
		if !ok {
			continue
		}
		switch {
		case s.Name == "core.process_frame":
			pf[s.Parent] = s.dur()
		case parent.Name == "replay" || parent.Name == "core.process_frame":
			layer[parent.Parent] += self[s.ID]
		}
	}
	var r reconciliation
	for root, d := range pf {
		un := d - layer[root]
		r.frames++
		r.unaccountedSum += un
		r.processSum += d
		if un < 0 {
			un = 0
		}
		r.coreSelfUS = append(r.coreSelfUS, us(un))
	}
	return r
}

// walogMicro times walog.Open/Append/Sync/WriteSnapshot on a scratch
// log with the run's own record and snapshot sizes.
func walogMicro(dir string, recSize, snapSize int) (appendUS, syncUS, snapMS []float64, err error) {
	l, err := walog.Open(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{0x5a}, recSize)
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		if err := l.Append(1, payload); err != nil {
			return nil, nil, nil, err
		}
		t1 := time.Now()
		if err := l.Sync(); err != nil {
			return nil, nil, nil, err
		}
		appendUS = append(appendUS, us(t1.Sub(t0)))
		syncUS = append(syncUS, us(time.Since(t1)))
	}
	snap := bytes.Repeat([]byte{0xa5}, snapSize)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := l.WriteSnapshot(snap); err != nil {
			return nil, nil, nil, err
		}
		snapMS = append(snapMS, ms(time.Since(t0)))
	}
	return appendUS, syncUS, snapMS, nil
}

// stateDir is what a listing of the controller's state dir shows.
type stateDir struct {
	gens          uint64 // sum over shards of the active wal generation
	snapshotBytes int64
	totalBytes    int64
	walRecords    int
	walRecBytes   int64 // payload bytes of those records
}

func listState(root string) (stateDir, error) {
	var sd stateDir
	_, dirs, err := walog.ListDirs(root, "shard-")
	if err != nil {
		return sd, err
	}
	for _, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return sd, err
		}
		for _, ent := range ents {
			info, err := ent.Info()
			if err != nil {
				continue // removed by a concurrent compaction
			}
			sd.totalBytes += info.Size()
			name := ent.Name()
			switch {
			case name == "snapshot":
				sd.snapshotBytes += info.Size()
			case strings.HasPrefix(name, "wal-"):
				if g, err := strconv.ParseUint(strings.TrimPrefix(name, "wal-"), 10, 64); err == nil {
					sd.gens += g
				}
				n, b := walRecords(filepath.Join(dir, name))
				sd.walRecords += n
				sd.walRecBytes += b
			}
		}
	}
	return sd, nil
}

// walRecords counts the records of one wal file and their payload
// bytes, skipping its 24-byte file header.
func walRecords(path string) (int, int64) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < 24 {
		return 0, 0
	}
	r := bytes.NewReader(data[24:])
	n, total := 0, int64(0)
	for {
		// Stops at the end, or at the torn tail of a crashed log.
		_, p, err := walog.ReadRecord(r)
		if err != nil {
			break
		}
		n++
		total += int64(len(p))
	}
	return n, total
}

// roundtrip times transport.WriteRecord + ReadRecord + DecodeRecord on
// the given upload records and counts heap allocations per round trip.
func roundtrip(recs []transport.UploadRecord) (p50US, allocs float64, err error) {
	if len(recs) == 0 {
		return 0, 0, nil
	}
	var buf bytes.Buffer
	one := func(r transport.UploadRecord) error {
		buf.Reset()
		if err := transport.WriteRecord(&buf, transport.KindUpload, r); err != nil {
			return err
		}
		_, body, err := transport.ReadRecord(&buf)
		if err != nil {
			return err
		}
		var out transport.UploadRecord
		return transport.DecodeRecord(body, &out)
	}
	const n = 2000
	times := make([]float64, 0, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := one(recs[i%len(recs)]); err != nil {
			return 0, 0, err
		}
		times = append(times, us(time.Since(t0)))
	}
	runtime.ReadMemStats(&m1)
	// The timing slice was allocated up front; what remains is the
	// round trips' own allocations.
	return median(times), float64(m1.Mallocs-m0.Mallocs) / n, nil
}

// decodeSent decodes the upload bodies a traced connection saw.
func decodeSent(node string, sent []sentBody) (map[upKey]time.Time, []transport.UploadRecord) {
	last := make(map[upKey]time.Time)
	var recs []transport.UploadRecord
	for _, s := range sent {
		var r transport.UploadRecord
		if err := transport.DecodeRecord(s.body, &r); err != nil {
			continue
		}
		recs = append(recs, r)
		k := upKey{Node: node, MC: r.MCName, Start: r.Start, End: r.End}
		if s.end.After(last[k]) {
			last[k] = s.end
		}
	}
	return last, recs
}

// madds is the multiply-add count of one frame on edge e: the base DNN
// up to its deepest tapped stage plus every MC.
func madds(b *bench, e *edge) (int64, error) {
	in := []int{1, e.cfg.FrameHeight, e.cfg.FrameWidth, 3}
	var base, mcs int64
	for _, d := range e.mcs {
		mc, err := filter.NewMC(d.spec, b.base, e.cfg.FrameWidth, e.cfg.FrameHeight)
		if err != nil {
			return 0, err
		}
		m, err := b.base.MAddsTo(mc.Stage(), in)
		if err != nil {
			return 0, err
		}
		if m > base {
			base = m
		}
		mcs += mc.MAddsPerFrame(false)
	}
	return base + mcs, nil
}

// crossCheck compares a benchmark span median with the program's own
// obs histogram median for the same stage. Reported, not gated.
func crossCheck(name string, spanUS []float64, h *obs.Histogram) string {
	if len(spanUS) == 0 || h.Count() == 0 {
		return fmt.Sprintf("%-16s no samples", name)
	}
	hp50 := float64(h.Quantile(0.5)) / 1e3
	sp50 := median(spanUS)
	return fmt.Sprintf("%-16s span p50 %9.1fus  obs p50 %9.1fus  ratio %.2f  (n=%d / %d)",
		name, sp50, hp50, sp50/hp50, len(spanUS), h.Count())
}
