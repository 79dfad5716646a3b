package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/event"
	"repro/internal/filter"
	"repro/internal/mobilenet"
	"repro/internal/tensor"
	"repro/internal/vision"
)

// refMC is the reference model's view of one live MC: its own
// classifier instance, smoothing and event state, and the open
// segment's start.
type refMC struct {
	mc       *filter.MC
	thr      float32
	sm       *event.Smoother
	det      *event.Detector
	offset   int // stream frame of the MC's local frame 0
	first    int // stream frame of the smoother's decision 0; -1 until its first push
	openID   uint64
	segStart int
}

// refNode assembles uploads the way the edge pipeline is specified to
// — a negative decision closes the open segment, a full chunk closes
// it and continues the event, Flush/Undeploy/PromoteShadow close it at
// the stream position — and codes every segment in one
// codec.EncodeSegment call over the original frames.
type refNode struct {
	t      *testing.T
	cfg    Config
	frames []*vision.Image
	ext    *mobilenet.Extractor
	xbuf   *tensor.Tensor
	mcs    []*refMC
	shadow *refMC
	next   int
}

func (r *refNode) stages() []string {
	var out []string
	for _, m := range append(append([]*refMC(nil), r.mcs...), r.shadow) {
		if m != nil && !slices.Contains(out, m.mc.Stage()) {
			out = append(out, m.mc.Stage())
		}
	}
	return out
}

func (r *refNode) frame() []Upload {
	r.xbuf = r.frames[r.next].ToTensorInto(r.xbuf)
	r.next++
	maps, err := r.ext.ExtractMulti(r.xbuf, r.stages())
	if err != nil {
		r.t.Fatal(err)
	}
	var ups []Upload
	for _, m := range r.mcs {
		for _, c := range m.mc.Push(maps[m.mc.Stage()]) {
			ups = append(ups, r.classify(m, c)...)
		}
	}
	if r.shadow != nil {
		r.shadow.mc.Push(maps[r.shadow.mc.Stage()])
	}
	return ups
}

func (r *refNode) classify(m *refMC, c filter.Classification) []Upload {
	if m.first < 0 {
		m.first = m.offset + c.Frame
	}
	var ups []Upload
	for _, dec := range m.sm.Push(c.Prob >= m.thr) {
		ups = append(ups, r.decide(m, dec)...)
	}
	return ups
}

func (r *refNode) decide(m *refMC, dec event.Decision) []Upload {
	frame := m.first + dec.Frame
	id, started := m.det.Observe(dec.Positive)
	if !dec.Positive {
		if m.openID == 0 {
			return nil
		}
		return []Upload{r.close(m, frame, true)}
	}
	if started {
		m.openID, m.segStart = id, frame
	}
	if frame+1-m.segStart < r.cfg.MaxChunkFrames {
		return nil
	}
	up := r.close(m, frame+1, false)
	m.openID, m.segStart = id, frame+1
	return []Upload{up}
}

func (r *refNode) close(m *refMC, end int, final bool) Upload {
	up := Upload{MCName: m.mc.Spec().Name, EventID: m.openID, Start: m.segStart, End: m.segStart, Final: final}
	m.openID = 0
	if end > m.segStart {
		up.End = end
		var recons []*vision.Image
		up.Bits, recons = codec.EncodeSegment(codec.Config{
			Width: r.cfg.FrameWidth, Height: r.cfg.FrameHeight, FPS: r.cfg.FPS,
			TargetBitrate: r.cfg.UploadBitrate,
		}, r.frames[m.segStart:end])
		if r.cfg.KeepReconstructions {
			up.Frames = recons
		}
	}
	return up
}

func (r *refNode) flushMC(m *refMC) []Upload {
	var ups []Upload
	for _, c := range m.mc.Flush() {
		ups = append(ups, r.classify(m, c)...)
	}
	for _, dec := range m.sm.Flush() {
		ups = append(ups, r.decide(m, dec)...)
	}
	if m.openID != 0 {
		ups = append(ups, r.close(m, r.next, true))
	}
	return ups
}

func (r *refNode) remove(name string) *refMC {
	for i, m := range r.mcs {
		if m.mc.Spec().Name == name {
			r.mcs = append(r.mcs[:i], r.mcs[i+1:]...)
			return m
		}
	}
	r.t.Fatalf("reference has no MC %q", name)
	return nil
}

// laneMC is one MC of the equivalence scenario.
type laneMC struct {
	name string
	seed int64
	thr  float32
}

// laneScenario drives an edge node and the reference through the
// same frames and lifecycle operations, failing on the first step
// whose uploads differ.
type laneScenario struct {
	t    *testing.T
	base *mobilenet.Model
	arch filter.Arch
	node *EdgeNode
	ref  *refNode
}

func (s *laneScenario) newMC(m laneMC) *filter.MC {
	mc, err := filter.NewMC(filter.Spec{Name: m.name, Arch: s.arch, Hidden: 8, Seed: m.seed}, s.base, 48, 27)
	if err != nil {
		s.t.Fatal(err)
	}
	return mc
}

func (s *laneScenario) refMC(m laneMC) *refMC {
	return &refMC{
		mc: s.newMC(m), thr: m.thr, offset: s.ref.next, first: -1,
		sm: event.NewSmoother(s.ref.cfg.SmoothN, s.ref.cfg.SmoothK), det: event.NewDetector(),
	}
}

func (s *laneScenario) deploy(m laneMC) {
	if err := s.node.DeployLive(s.newMC(m), m.thr); err != nil {
		s.t.Fatal(err)
	}
	s.ref.mcs = append(s.ref.mcs, s.refMC(m))
}

func (s *laneScenario) deployShadow(m laneMC) {
	if err := s.node.DeployShadow(s.newMC(m), m.thr, 1); err != nil {
		s.t.Fatal(err)
	}
	s.ref.shadow = s.refMC(m)
}

func (s *laneScenario) check(step string, got []Upload, err error, want []Upload) []Upload {
	s.t.Helper()
	if err != nil {
		s.t.Fatalf("%s: %v", step, err)
	}
	if len(got) != len(want) {
		s.t.Fatalf("%s: %d uploads, reference %d\n got: %v\nwant: %v", step, len(got), len(want), brief(got), brief(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			s.t.Fatalf("%s: upload %d differs\n got: %v\nwant: %v", step, i, brief(got[i:i+1]), brief(want[i:i+1]))
		}
	}
	return got
}

func brief(ups []Upload) string {
	out := ""
	for _, u := range ups {
		out += fmt.Sprintf("{%s #%d [%d,%d) %d bits final=%v %d recons} ", u.MCName, u.EventID, u.Start, u.End, u.Bits, u.Final, len(u.Frames))
	}
	return out
}

func (s *laneScenario) frame(i int) []Upload {
	ups, err := s.node.ProcessFrame(s.ref.frames[i])
	return s.check(fmt.Sprintf("frame %d", i), ups, err, s.ref.frame())
}

// mixThreshold returns the 80th percentile of an MC's probabilities
// over frames: with 2-of-5 smoothing, about a quarter of the smoothed
// decisions come out positive, in short runs.
func (s *laneScenario) mixThreshold(m laneMC, frames []*vision.Image) float32 {
	mc := s.newMC(m)
	ext := s.base.NewExtractor()
	var probs []float32
	var x *tensor.Tensor
	for _, f := range frames {
		x = f.ToTensorInto(x)
		maps, err := ext.ExtractMulti(x, []string{mc.Stage()})
		if err != nil {
			s.t.Fatal(err)
		}
		for _, c := range mc.Push(maps[mc.Stage()]) {
			probs = append(probs, c.Prob)
		}
	}
	sort.Slice(probs, func(i, j int) bool { return probs[i] < probs[j] })
	return probs[len(probs)*4/5]
}

// TestPipelinedEncodeMatchesDirectEncode pins the encode lane to the
// one-shot schedule: every upload — MC, event ID, range, Final, bits
// and reconstructions — equals what a reference assembly coding each
// segment with one codec.EncodeSegment call produces, for immediate
// and windowed MCs, chunk sizes from 1 to 200 (a 200-frame chunk
// crosses the encoder's 150-frame keyframe interval), and every close
// path: negative decision, chunk limit, PromoteShadow, Undeploy and
// Flush.
func TestPipelinedEncodeMatchesDirectEncode(t *testing.T) {
	base := testBase()
	for _, arch := range []filter.Arch{filter.LocalizedBinary, filter.WindowedLocalizedBinary} {
		for _, chunk := range []int{1, 4, 48, 200} {
			t.Run(fmt.Sprintf("%v/chunk%d", arch, chunk), func(t *testing.T) {
				n := 72
				if chunk > 150 {
					n = 170
				}
				cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base,
					UploadBitrate: 40_000, MaxChunkFrames: chunk, RetainFrames: 400,
					KeepReconstructions: true}
				node, err := NewEdgeNode(cfg)
				if err != nil {
					t.Fatal(err)
				}
				filled := node.Config()
				frames := testFrames(n)
				s := &laneScenario{t: t, base: base, arch: arch, node: node,
					ref: &refNode{t: t, cfg: filled, frames: frames, ext: base.NewExtractor()}}
				mix := laneMC{name: "mix", seed: 5}
				mix.thr = s.mixThreshold(mix, frames)

				// "all" matches every frame and closes at Flush; "mix"
				// closes on negatives and full chunks; "swap" is
				// replaced by its always-matching shadow candidate at
				// n/2, which Undeploy closes at 3n/4.
				s.deploy(laneMC{name: "all", seed: 3, thr: -1})
				s.deploy(mix)
				s.deploy(laneMC{name: "swap", seed: 7, thr: -1})
				var all []Upload
				for i := 0; i < n; i++ {
					switch i {
					case 5:
						s.deployShadow(laneMC{name: "swap", seed: 11, thr: -1})
					case n / 2:
						want := s.ref.flushMC(s.ref.remove("swap"))
						s.ref.mcs = append(s.ref.mcs, s.ref.shadow)
						s.ref.shadow.sm = event.NewSmoother(filled.SmoothN, filled.SmoothK)
						s.ref.shadow.det = event.NewDetector()
						s.ref.shadow = nil
						ups, err := node.PromoteShadow("swap")
						all = append(all, s.check("promote", ups, err, want)...)
					case 3 * n / 4:
						want := s.ref.flushMC(s.ref.remove("swap"))
						ups, err := node.Undeploy("swap")
						all = append(all, s.check("undeploy", ups, err, want)...)
						if len(ups) == 0 || !ups[len(ups)-1].Final {
							t.Fatalf("undeploy closed no open event: %v", brief(ups))
						}
					}
					all = append(all, s.frame(i)...)
				}
				var want []Upload
				for _, m := range s.ref.mcs {
					want = append(want, s.ref.flushMC(m)...)
				}
				ups, err := node.Flush()
				all = append(all, s.check("flush", ups, err, want)...)

				var negative, limit, coded, longest int
				var bits int64
				for _, u := range all {
					if u.MCName == "mix" && u.Final {
						negative++
					}
					if !u.Final {
						limit++
					}
					if u.End > u.Start {
						coded++
					}
					bits += u.Bits
					longest = max(longest, u.End-u.Start)
				}
				if negative == 0 || (chunk < n && limit == 0) {
					t.Fatalf("scenario missed a close path: %d negative closes, %d chunk-limit closes", negative, limit)
				}
				if chunk > 150 && longest <= 150 {
					t.Fatalf("no segment crosses the keyframe interval (longest %d frames)", longest)
				}
				// Empty closes (a negative right after a full chunk)
				// are returned but not counted as coded uploads.
				if st := node.Stats(); st.UploadedBits != bits || st.Uploads != coded {
					t.Fatalf("stats: %d bits in %d uploads, returned %d bits in %d", st.UploadedBits, st.Uploads, bits, coded)
				}
			})
		}
	}
}

// TestEncodeLaneExitsWhenIdle checks that no lane goroutine outlives
// its work: after Flush the goroutine count returns to its baseline,
// and a node abandoned mid-segment leaves none behind either.
func TestEncodeLaneExitsWhenIdle(t *testing.T) {
	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: testBase(), UploadBitrate: 50_000}
	frames := testFrames(30)
	baseline := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		// The lane exits right after signalling its last frame, so
		// give it until the deadline to return.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
	e := newNode(t, cfg, map[filter.Arch]float32{filter.LocalizedBinary: -1})
	for _, f := range frames {
		if _, err := e.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	ups, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || ups[0].End != len(frames) {
		t.Fatalf("flush uploads: %v", brief(ups))
	}
	settled("after Flush")

	// Abandoned with a segment open and frames still queued.
	e = newNode(t, cfg, map[filter.Arch]float32{filter.LocalizedBinary: -1})
	for _, f := range frames {
		if _, err := e.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	settled("abandoned node")
}
