// Package core is FilterForward itself: the edge-node pipeline that
// runs one shared base DNN per frame, fans its feature maps out to
// many microclassifiers, smooths their per-frame classifications into
// events, re-encodes matched event segments at a user-configured
// bitrate, and sends them over a bandwidth-constrained uplink to
// datacenter applications (Figure 1 of the paper).
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/event"
	"repro/internal/filter"
	"repro/internal/mobilenet"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/vision"
)

// FrameSource supplies original frames by index. dataset.Dataset
// implements it; it also models the edge node's local archive for
// demand-fetch (§3.2: "edge nodes record the original video stream to
// disk so that datacenter applications can demand-fetch additional
// video") when no persistent FrameArchive is attached.
type FrameSource interface {
	Frame(i int) *vision.Image
}

// FrameArchive is the persistent on-disk archive contract
// (internal/archive.Store implements it): the ingest path appends
// every original frame with its codec-model coded size, and
// demand-fetch reads ranges back. Append is called from the pipeline
// owner goroutine; ReadRange must be internally synchronized against
// it.
type FrameArchive interface {
	// Append stores one full-fidelity frame and its codec-model coded
	// size, returning the stream index it was assigned.
	Append(img *vision.Image, codedBits int64) (int, error)
	// ReadRange returns archived frames [start, end), failing for
	// ranges evicted by retention or not yet archived.
	ReadRange(start, end int) ([]*vision.Image, error)
	// NextFrame is the next stream index Append will assign.
	NextFrame() int
}

// Config parameterizes an edge node.
type Config struct {
	// FrameWidth, FrameHeight are the incoming stream dimensions.
	FrameWidth, FrameHeight int
	// FPS is the stream frame rate.
	FPS int
	// Base is the shared feature-extraction DNN.
	Base *mobilenet.Model
	// UploadBitrate is the H.264 target bitrate (bits/s) for
	// re-encoding matched segments. The paper uses 250 kb/s and
	// 500 kb/s at 1080p; scale to the working resolution.
	UploadBitrate float64
	// UplinkBandwidth is the link capacity in bits/s. Zero disables
	// uplink modelling.
	UplinkBandwidth float64
	// SmoothN, SmoothK are the K-of-N voting parameters (§3.5;
	// defaults 5 and 2).
	SmoothN, SmoothK int
	// MaxChunkFrames bounds how many frames of an open event are
	// buffered before a partial segment is encoded and sent
	// (default 48).
	MaxChunkFrames int
	// RetainFrames bounds the original-frame ring buffer
	// (default 256). It must cover classifier lag + smoothing lag +
	// MaxChunkFrames.
	RetainFrames int
	// KeepReconstructions stores decoded uploads in each Upload for
	// accuracy analysis. Disable for long throughput runs.
	KeepReconstructions bool
	// ArchiveToDisk accounts the bits of continuously archiving the
	// full original stream to local disk at ArchiveBitrate. Disabled
	// by default (costs an extra encode per frame).
	ArchiveToDisk  bool
	ArchiveBitrate float64
	// MCWorkers bounds the goroutine fan-out across deployed MCs in
	// phase 2 of ProcessFrame (0 or 1 runs them serially). Results are
	// identical either way: classification is independent per-MC
	// compute, and event assembly always runs serially in deployment
	// order afterwards, so upload sequences, event IDs, and bit
	// accounting do not depend on this setting.
	MCWorkers int
	// StreamLabel names this stream in traces and metrics (default
	// "stream"). MultiStreamNode.AddStream sets it to the stream name.
	StreamLabel string
	// Obs, when non-nil, receives per-stage latency observations and
	// per-frame pipeline spans from the node. The instrumentation is
	// allocation-free on the steady-state hot path, so it may stay on
	// in production. Streams of one node share an Observer.
	Obs *obs.Observer
}

func (c *Config) fillDefaults() error {
	if c.FrameWidth <= 0 || c.FrameHeight <= 0 {
		return fmt.Errorf("core: bad frame dims %dx%d", c.FrameWidth, c.FrameHeight)
	}
	if c.Base == nil {
		return fmt.Errorf("core: config needs a base DNN")
	}
	if c.FPS <= 0 {
		c.FPS = 15
	}
	if c.SmoothN == 0 {
		c.SmoothN = event.DefaultN
	}
	if c.SmoothK == 0 {
		c.SmoothK = event.DefaultK
	}
	if c.MaxChunkFrames <= 0 {
		c.MaxChunkFrames = 48
	}
	if c.RetainFrames <= 0 {
		c.RetainFrames = 256
	}
	if c.UploadBitrate <= 0 {
		c.UploadBitrate = 100_000
	}
	if c.ArchiveToDisk && c.ArchiveBitrate <= 0 {
		c.ArchiveBitrate = 4 * c.UploadBitrate
	}
	if c.StreamLabel == "" {
		c.StreamLabel = "stream"
	}
	return nil
}

// Upload is one coded segment sent to the datacenter.
type Upload struct {
	// MCName identifies which application's microclassifier matched.
	MCName string
	// EventID is the MC-local monotonically increasing event ID
	// carried in frame metadata (§3.5).
	EventID uint64
	// Start, End delimit the frame range [Start, End).
	Start, End int
	// Bits is the coded size.
	Bits int64
	// Delay is the uplink queueing delay in seconds at send time.
	Delay float64
	// Frames holds the decoder-side reconstructions when the edge
	// node is configured with KeepReconstructions.
	Frames []*vision.Image
	// Final marks the last chunk of an event.
	Final bool
}

// FrameMeta is the per-frame metadata map from MC name to event ID
// (§3.5: "if frame F is part of event X for MC A and event Y for MC B,
// F's metadata will contain the mapping (A→X; B→Y)").
type FrameMeta map[string]uint64

// Stats aggregates an edge node's counters.
type Stats struct {
	// Frames is the number of frames processed.
	Frames int
	// DecodeTime, BaseDNNTime and MCTime split the pipeline's
	// per-frame execution (Figure 6 reports the latter two).
	// DecodeTime covers frame ingest: converting incoming pixels to
	// the base DNN's input tensor.
	DecodeTime  time.Duration
	BaseDNNTime time.Duration
	MCTime      time.Duration
	// EncodeTime is spent re-encoding video for the uplink: matched
	// event segments and demand-fetched archive ranges. A segment's
	// time is the sum of its per-frame coding times, most of them
	// spent on the encode lane concurrently with later frames; it is
	// added when the segment closes.
	EncodeTime time.Duration
	// ArchiveTime is the ingest path's codec-model encode of the
	// continuous local archive (zero when ArchiveToDisk is off).
	ArchiveTime time.Duration
	// MCTimeBy splits MCTime per microclassifier.
	MCTimeBy map[string]time.Duration
	// UploadedBits and UploadedFrames count what was sent.
	UploadedBits   int64
	UploadedFrames int
	// Uploads counts coded segments.
	Uploads int
	// ArchivedBits counts local-disk archive bits (if enabled).
	ArchivedBits int64
	// DemandFetchBits and DemandFetches count demand-fetched archive
	// traffic separately from event-segment uploads: both share the
	// uplink, but only UploadedBits reflects the filtering pipeline's
	// own output.
	DemandFetchBits int64
	DemandFetches   int
	// MaxUplinkDelay is the worst queueing delay seen on the uplink,
	// across both segment uploads and demand fetches.
	MaxUplinkDelay float64
}

// AverageUploadBitrate returns realized uplink usage in bits/s.
func (s *Stats) AverageUploadBitrate(fps int) float64 {
	if s.Frames == 0 {
		return 0
	}
	seconds := float64(s.Frames) / float64(fps)
	return float64(s.UploadedBits) / seconds
}

// mcStep is one MC's phase-2a result slot: the classifications that
// became final this frame and the push latency.
type mcStep struct {
	cls []filter.Classification
	dt  time.Duration
}

// deployedMC is one application's MC with its per-stream state.
type deployedMC struct {
	mc        *filter.MC
	threshold float32
	smoother  *event.Smoother
	detector  *event.Detector

	// sketch accumulates the MC's score distribution since deploy —
	// the semantic signal heartbeats carry for fleet drift detection.
	// Always on: a sketch is a few hundred bytes and recording is
	// allocation-free, so observer-less nodes still report one.
	sketch *obs.ScoreSketch

	// offset maps the MC's local frame counter (0 at deploy time) to
	// stream frame indices; non-zero for live mid-stream deployments.
	offset int

	// open event segment assembly. seg is the open segment's
	// streaming encode, nil until its first frame is handed over.
	openID    uint64
	segStart  int
	segFrames int
	seg       *segEncode
}

// segEncode is one open segment's streaming encode. The owner hands
// the segment's frames to the encode lane in order (sent); the lane
// codes them (done), summing bits, reconstructions and coding time.
// closeSegment reads the sums once done has caught up with sent.
type segEncode struct {
	enc  *codec.Encoder
	keep bool // collect reconstructions (Config.KeepReconstructions)
	sent int  // frames handed over; owner goroutine only
	done int  // frames coded; guarded by encodeLane.mu

	// Written by whichever goroutine codes the frame: the lane for
	// handed-over frames, the owner (after wait) for the rest.
	bits   int64
	recons []*vision.Image
	first  time.Time // when coding of the first frame began
	took   time.Duration
}

// encode codes the segment's next frame.
func (s *segEncode) encode(img *vision.Image) {
	t0 := time.Now()
	out := s.enc.Encode(img)
	if s.first.IsZero() {
		s.first = t0
	}
	s.took += time.Since(t0)
	s.bits += out.Bits
	if s.keep {
		s.recons = append(s.recons, out.Recon)
	}
}

// encodeLane codes handed-over segment frames on a background
// goroutine, so a segment's encoding overlaps the base DNN and MCs of
// the frames that follow. The goroutine runs only while jobs are
// queued: submit starts it, and it exits when it finds the queue
// empty, so none outlives its work or an abandoned node. One FIFO
// keeps each segment's frames in order, which its encoder needs.
type encodeLane struct {
	mu      sync.Mutex
	coded   sync.Cond // broadcast after every coded frame
	jobs    []laneJob // queued jobs are jobs[head:]
	head    int
	running bool
}

type laneJob struct {
	seg *segEncode
	img *vision.Image
}

func (l *encodeLane) submit(seg *segEncode, img *vision.Image) {
	l.mu.Lock()
	if l.head > 0 && len(l.jobs) == cap(l.jobs) {
		// Reclaim the drained prefix before append would grow the
		// array: with segments of several MCs overlapping, the queue
		// need never run empty.
		n := copy(l.jobs, l.jobs[l.head:])
		clear(l.jobs[n:])
		l.jobs, l.head = l.jobs[:n], 0
	}
	l.jobs = append(l.jobs, laneJob{seg, img})
	start := !l.running
	l.running = true
	l.mu.Unlock()
	if start {
		go l.run()
	}
}

func (l *encodeLane) run() {
	l.mu.Lock()
	for l.head < len(l.jobs) {
		j := l.jobs[l.head]
		l.jobs[l.head] = laneJob{}
		l.head++
		l.mu.Unlock()
		j.seg.encode(j.img)
		l.mu.Lock()
		j.seg.done++
		l.coded.Broadcast()
	}
	l.jobs, l.head = l.jobs[:0], 0
	l.running = false
	l.mu.Unlock()
}

// wait blocks until every frame handed over for seg has been coded.
func (l *encodeLane) wait(seg *segEncode) {
	l.mu.Lock()
	for seg.done < seg.sent {
		l.coded.Wait()
	}
	l.mu.Unlock()
}

// shadowMC is a canary candidate evaluated in the shadow of the live
// deployment: it consumes the same shared feature maps as the
// incumbents, but its classifications feed only a private score
// sketch — no smoothing, no event assembly, no uploads. The
// controller compares the shadow's sketch against the incumbent's to
// decide promotion or rollback.
type shadowMC struct {
	mc        *filter.MC
	threshold float32
	sketch    *obs.ScoreSketch
	// epoch is the controller-assigned install counter for this shadow
	// slot, echoed in heartbeats so the controller can tell a fresh
	// sketch from the previous install's even when the counts line up.
	epoch uint64
	// offset maps the shadow's local frame counter to stream indices.
	offset int
	// scored counts the classifications the shadow has consumed, so
	// its MC's next one is for local frame scored. A promoted
	// deployment's fresh smoother starts counting there.
	scored int
	// cls holds phase 2a's result for phase 2b. MC.Push returns a
	// slice that is reused by that MC's next Push/Flush, so the
	// shadow fan-out copies the classifications out instead of
	// aliasing the ring.
	cls []filter.Classification
}

// EdgeNode is a FilterForward edge instance bound to one camera
// stream.
//
// Concurrency: an EdgeNode's pipeline (ProcessFrame, Flush, Deploy*,
// Undeploy, FetchArchive) is single-owner — exactly one goroutine may
// drive it at a time (the Scheduler serializes this per stream). The
// observer methods Stats, Meta, and MCNames are safe to call from any
// goroutine while the pipeline is running: mu guards the state they
// read against the owner's writes.
type EdgeNode struct {
	cfg Config
	mcs []*deployedMC
	// shadows are canary candidates scoring alongside the incumbents;
	// they never produce uploads. Owned by the pipeline goroutine;
	// mu guards the list for observers.
	shadows []*shadowMC
	meta    map[int]FrameMeta

	// ext is this node's private handle onto the shared base DNN's
	// frozen inference fast path: a per-stream workspace arena keeps
	// steady-state extraction allocation-free, while the Model itself
	// (weights, compiled programs) stays shared across all streams.
	// Owned by the pipeline goroutine.
	ext *mobilenet.Extractor
	// stages caches the distinct tapped stages of the deployed MCs,
	// rebuilt on deploy/undeploy so ProcessFrame does not recompute the
	// union per frame. Owned by the pipeline goroutine.
	stages []string

	uplink  *TokenBucket
	archive *codec.Encoder
	store   FrameArchive // persistent archive; nil = accounting-only

	// lane codes open segments' frames off the owner goroutine.
	lane encodeLane

	// frames is the retained-originals ring: frame f lives at
	// frames[f%len(frames)], sized RetainFrames+1 so the window
	// [nextFrame-RetainFrames, nextFrame] fits without collisions. A
	// fixed slice (rather than a map) keeps steady-state retention
	// allocation-free.
	frames     []*vision.Image
	oldestKept int
	nextFrame  int

	// Hot-path arenas, owned by the pipeline goroutine: xbuf is the
	// ingest tensor ToTensorInto fills each frame; steps is phase 2a's
	// per-MC result slots; curMaps points at the extractor's feature
	// maps for the frame in flight; mcRun is the prebuilt fan-out
	// body (building the closure per frame would allocate).
	xbuf      *tensor.Tensor
	steps     []mcStep
	curMaps   map[string]*tensor.Tensor
	mcRun     func(int)
	shadowRun func(int)

	// obs is the node's observability sink (nil disables); sid is the
	// stream's interned trace ID.
	obs *obs.Observer
	sid uint32

	// mu guards externally observable state (stats, meta, mcs) between
	// the pipeline owner and concurrent observers. All writes happen on
	// the owner's goroutine; observers lock to read, and the owner
	// locks only around writes (its own unlocked reads cannot race —
	// nothing else writes).
	mu    sync.Mutex
	stats Stats
}

// NewEdgeNode constructs an edge node.
func NewEdgeNode(cfg Config) (*EdgeNode, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	e := &EdgeNode{
		cfg:    cfg,
		frames: make([]*vision.Image, cfg.RetainFrames+1),
		meta:   make(map[int]FrameMeta),
		ext:    cfg.Base.NewExtractor(),
		xbuf:   tensor.New(1, cfg.FrameHeight, cfg.FrameWidth, 3),
		obs:    cfg.Obs,
	}
	e.stats.MCTimeBy = make(map[string]time.Duration)
	e.lane.coded.L = &e.lane.mu
	if e.obs != nil {
		e.sid = e.obs.Trace.StreamID(cfg.StreamLabel)
	}
	e.mcRun = func(i int) {
		d := e.mcs[i]
		t1 := time.Now()
		cls := d.mc.Push(e.curMaps[d.mc.Stage()])
		e.steps[i] = mcStep{cls: cls, dt: time.Since(t1)}
	}
	e.shadowRun = func(i int) {
		s := e.shadows[i]
		// Copy, don't alias: the returned slice is only valid until
		// this MC's next Push, and the copy is what phase 2b (and the
		// heartbeat snapshot) may still be reading.
		s.cls = append(s.cls[:0], s.mc.Push(e.curMaps[s.mc.Stage()])...)
	}
	if cfg.UplinkBandwidth > 0 {
		e.uplink = NewTokenBucket(cfg.UplinkBandwidth, cfg.UplinkBandwidth) // 1 s burst
	}
	if cfg.ArchiveToDisk {
		e.archive = codec.NewEncoder(codec.Config{
			Width: cfg.FrameWidth, Height: cfg.FrameHeight, FPS: cfg.FPS,
			TargetBitrate: cfg.ArchiveBitrate,
		})
	}
	return e, nil
}

// Deploy installs a microclassifier with a decision threshold. All MCs
// must be deployed before the first frame is processed; use DeployLive
// for mid-stream deployment (the fleet control plane's path).
func (e *EdgeNode) Deploy(mc *filter.MC, threshold float32) error {
	if e.nextFrame != 0 {
		return fmt.Errorf("core: deploy after stream start (use DeployLive)")
	}
	return e.deploy(mc, threshold)
}

// DeployLive installs a microclassifier while the stream is running:
// the MC starts classifying at the next frame, and its event frame
// ranges are reported in stream coordinates. The MC must be fresh (its
// streaming state is reset on deployment). This is the §3.2 remote
// deployment hook the fleet agent uses.
func (e *EdgeNode) DeployLive(mc *filter.MC, threshold float32) error {
	return e.deploy(mc, threshold)
}

func (e *EdgeNode) deploy(mc *filter.MC, threshold float32) error {
	for _, d := range e.mcs {
		if d.mc.Spec().Name == mc.Spec().Name {
			return fmt.Errorf("core: duplicate MC name %q", mc.Spec().Name)
		}
	}
	shape := mc.FeatureMapShape()
	if shape[1] <= 0 || shape[2] <= 0 {
		return fmt.Errorf("core: MC %q has empty feature map", mc.Spec().Name)
	}
	mc.Reset()
	sketch := &obs.ScoreSketch{}
	var agg *obs.ScoreSketch
	if e.obs != nil {
		mc.Instrument(e.obs.Trace, e.obs.MCPush, e.sid, e.nextFrame)
		agg = e.obs.Scores
	}
	mc.InstrumentScores(sketch, agg, float64(threshold))
	d := &deployedMC{
		mc:        mc,
		threshold: threshold,
		smoother:  event.NewSmoother(e.cfg.SmoothN, e.cfg.SmoothK),
		detector:  event.NewDetector(),
		sketch:    sketch,
		offset:    e.nextFrame,
	}
	e.mu.Lock()
	e.mcs = append(e.mcs, d)
	e.mu.Unlock()
	e.stages = e.stageUnion()
	e.steps = make([]mcStep, len(e.mcs))
	return nil
}

// Undeploy removes a deployed microclassifier by name, draining its
// classifier and smoother tails and closing any open event. The final
// uploads (if any) are returned so they still reach the datacenter.
func (e *EdgeNode) Undeploy(name string) ([]Upload, error) {
	for i, d := range e.mcs {
		if d.mc.Spec().Name != name {
			continue
		}
		ups, err := e.flushMC(d)
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		e.mcs = append(e.mcs[:i], e.mcs[i+1:]...)
		e.mu.Unlock()
		e.stages = e.stageUnion()
		e.steps = make([]mcStep, len(e.mcs))
		return ups, nil
	}
	return nil, fmt.Errorf("core: no deployed MC named %q", name)
}

// DeployShadow installs a canary candidate that scores every frame
// alongside the live deployment without affecting uploads: its
// classifications feed only a private score sketch that heartbeats
// report for the controller's promote/rollback decision. A shadow
// with the same name replaces the previous one (the canary deploy is
// idempotent across agent reconnects). The candidate usually shares
// its name with the incumbent it may replace; names never collide
// because shadows live in their own namespace. epoch is the
// controller's install counter for the slot (zero from controllers
// predating it), reported back verbatim so each install's sketch is
// distinguishable from its predecessor's.
func (e *EdgeNode) DeployShadow(mc *filter.MC, threshold float32, epoch uint64) error {
	shape := mc.FeatureMapShape()
	if shape[1] <= 0 || shape[2] <= 0 {
		return fmt.Errorf("core: shadow MC %q has empty feature map", mc.Spec().Name)
	}
	mc.Reset()
	if e.obs != nil {
		mc.Instrument(e.obs.Trace, e.obs.MCPush, e.sid, e.nextFrame)
	}
	s := &shadowMC{
		mc:        mc,
		threshold: threshold,
		sketch:    &obs.ScoreSketch{},
		epoch:     epoch,
		offset:    e.nextFrame,
	}
	e.mu.Lock()
	replaced := false
	for i, old := range e.shadows {
		if old.mc.Spec().Name == mc.Spec().Name {
			e.shadows[i] = s
			replaced = true
			break
		}
	}
	if !replaced {
		e.shadows = append(e.shadows, s)
	}
	e.mu.Unlock()
	e.stages = e.stageUnion()
	return nil
}

// UndeployShadow removes a canary candidate by name — the rollback
// path. Its sketch is discarded with it.
func (e *EdgeNode) UndeployShadow(name string) error {
	for i, s := range e.shadows {
		if s.mc.Spec().Name != name {
			continue
		}
		e.mu.Lock()
		e.shadows = append(e.shadows[:i], e.shadows[i+1:]...)
		e.mu.Unlock()
		e.stages = e.stageUnion()
		return nil
	}
	return fmt.Errorf("core: no shadow MC named %q", name)
}

// PromoteShadow atomically swaps the named canary candidate into the
// live slot of the same-named incumbent: the incumbent is flushed
// (its final uploads are returned so open events still reach the
// datacenter) and the candidate takes over event assembly from the
// next frame with fresh smoothing state. The candidate keeps its
// shadow-period score sketch — it describes the same model — so the
// controller's version-keyed drift detector re-baselines on the
// version change, not on a count reset.
func (e *EdgeNode) PromoteShadow(name string) ([]Upload, error) {
	si := -1
	for i, s := range e.shadows {
		if s.mc.Spec().Name == name {
			si = i
			break
		}
	}
	if si < 0 {
		return nil, fmt.Errorf("core: no shadow MC named %q", name)
	}
	s := e.shadows[si]
	for i, d := range e.mcs {
		if d.mc.Spec().Name != name {
			continue
		}
		ups, err := e.flushMC(d)
		if err != nil {
			return nil, err
		}
		var agg *obs.ScoreSketch
		if e.obs != nil {
			agg = e.obs.Scores
		}
		s.mc.InstrumentScores(s.sketch, agg, float64(s.threshold))
		e.mu.Lock()
		e.mcs[i] = &deployedMC{
			mc:        s.mc,
			threshold: s.threshold,
			smoother:  event.NewSmoother(e.cfg.SmoothN, e.cfg.SmoothK),
			detector:  event.NewDetector(),
			sketch:    s.sketch,
			offset:    s.offset + s.scored,
		}
		e.shadows = append(e.shadows[:si], e.shadows[si+1:]...)
		e.mu.Unlock()
		e.stages = e.stageUnion()
		return ups, nil
	}
	return nil, fmt.Errorf("core: no deployed MC named %q to promote over", name)
}

// ShadowNames returns the canary candidates' names in deployment
// order. Safe to call while another goroutine owns the pipeline.
func (e *EdgeNode) ShadowNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, len(e.shadows))
	for i, s := range e.shadows {
		names[i] = s.mc.Spec().Name
	}
	return names
}

// MC returns the deployed microclassifier with the given name, nil
// when absent. The returned MC is live pipeline state: inspect it
// only while the pipeline is quiescent (e.g. after a flush), never
// concurrently with frame processing.
func (e *EdgeNode) MC(name string) *filter.MC {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, d := range e.mcs {
		if d.mc.Spec().Name == name {
			return d.mc
		}
	}
	return nil
}

// MCNames returns deployed MC names in deployment order. Safe to call
// while another goroutine owns the pipeline.
func (e *EdgeNode) MCNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, len(e.mcs))
	for i, d := range e.mcs {
		names[i] = d.mc.Spec().Name
	}
	return names
}

// ScoreSketches returns a snapshot of every deployed MC's cumulative
// score sketch since deploy, keyed by MC name. Safe to call while
// another goroutine owns the pipeline: sketch counters are atomic and
// mu guards the MC list. This is what the fleet agent folds into
// heartbeats.
func (e *EdgeNode) ScoreSketches() map[string]obs.SketchSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.mcs) == 0 {
		return nil
	}
	out := make(map[string]obs.SketchSnapshot, len(e.mcs))
	for _, d := range e.mcs {
		out[d.mc.Spec().Name] = d.sketch.Snapshot()
	}
	return out
}

// ShadowSketches returns a snapshot of every canary candidate's score
// sketch, keyed by MC name — the shadow-side signal heartbeats carry
// for the controller's promote/rollback decision. Safe to call while
// another goroutine owns the pipeline.
func (e *EdgeNode) ShadowSketches() map[string]obs.SketchSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.shadows) == 0 {
		return nil
	}
	out := make(map[string]obs.SketchSnapshot, len(e.shadows))
	for _, s := range e.shadows {
		out[s.mc.Spec().Name] = s.sketch.Snapshot()
	}
	return out
}

// MCVersions returns the deployed MCs' model versions keyed by name
// (zero for unversioned artifacts). Safe to call while another
// goroutine owns the pipeline.
func (e *EdgeNode) MCVersions() map[string]uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.mcs) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(e.mcs))
	for _, d := range e.mcs {
		out[d.mc.Spec().Name] = d.mc.Spec().Version
	}
	return out
}

// ShadowVersions returns the canary candidates' model versions keyed
// by name. Safe to call while another goroutine owns the pipeline.
func (e *EdgeNode) ShadowVersions() map[string]uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.shadows) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(e.shadows))
	for _, s := range e.shadows {
		out[s.mc.Spec().Name] = s.mc.Spec().Version
	}
	return out
}

// ShadowEpochs returns the canary candidates' controller-assigned
// install counters keyed by name (see DeployShadow). Safe to call
// while another goroutine owns the pipeline.
func (e *EdgeNode) ShadowEpochs() map[string]uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.shadows) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(e.shadows))
	for _, s := range e.shadows {
		out[s.mc.Spec().Name] = s.epoch
	}
	return out
}

// Stats returns a snapshot of the node's counters. Safe to call while
// another goroutine owns the pipeline.
func (e *EdgeNode) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.MCTimeBy = make(map[string]time.Duration, len(e.stats.MCTimeBy))
	for k, v := range e.stats.MCTimeBy {
		s.MCTimeBy[k] = v
	}
	return s
}

// Config returns a copy of the node's configuration (defaults filled).
func (e *EdgeNode) Config() Config { return e.cfg }

// AttachArchive connects a persistent frame archive to the ingest
// path: every processed frame is appended to it (alongside the
// codec-model ArchivedBits accounting), and FetchArchive serves
// demand-fetch ranges from it instead of the live source. The node
// must be configured with ArchiveToDisk (the codec model supplies the
// per-frame coded sizes), and the archive's next index must line up
// with the stream position — attach before the first frame, or an
// archive that already holds exactly this stream's prefix.
func (e *EdgeNode) AttachArchive(store FrameArchive) error {
	if store == nil {
		return fmt.Errorf("core: nil archive")
	}
	if !e.cfg.ArchiveToDisk {
		return fmt.Errorf("core: attach archive needs Config.ArchiveToDisk")
	}
	if got := store.NextFrame(); got != e.nextFrame {
		return fmt.Errorf("core: archive resumes at frame %d, stream is at %d", got, e.nextFrame)
	}
	e.store = store
	return nil
}

// FetchArchive reads frames [start, end) from the node's local archive
// (§3.2: "edge nodes record the original video stream to disk"),
// re-encodes them at the given bitrate, and accounts the transfer
// against the uplink. It returns the decoder-side reconstructions and
// the coded size. With a persistent archive attached (AttachArchive)
// the frames come off disk; un-archived configs fall back to the live
// source src. The archive stores the full-fidelity originals, so both
// paths re-encode identical input and produce byte-identical
// reconstructions and bit counts. Both the in-process
// Datacenter.DemandFetch and the fleet agent's wire-level demand-fetch
// go through here, so their accounting is identical by construction.
func (e *EdgeNode) FetchArchive(src FrameSource, start, end int, bitrate float64) ([]*vision.Image, int64, error) {
	if start < 0 || end <= start {
		return nil, 0, fmt.Errorf("core: bad demand-fetch range [%d,%d)", start, end)
	}
	var frames []*vision.Image
	if e.store != nil {
		var err error
		frames, err = e.store.ReadRange(start, end)
		if err != nil {
			return nil, 0, fmt.Errorf("core: demand-fetch: %w", err)
		}
	} else {
		if src == nil {
			return nil, 0, fmt.Errorf("core: no archive source")
		}
		frames = make([]*vision.Image, 0, end-start)
		for f := start; f < end; f++ {
			frames = append(frames, src.Frame(f))
		}
	}
	t0 := time.Now()
	bits, recons := codec.EncodeSegment(codec.Config{
		Width: e.cfg.FrameWidth, Height: e.cfg.FrameHeight, FPS: e.cfg.FPS,
		TargetBitrate: bitrate,
	}, frames)
	encodeTime := time.Since(t0)
	if e.obs != nil {
		e.obs.Fetch.Observe(encodeTime)
		e.obs.Trace.Record(obs.StageFetch, e.sid, int64(start), t0, encodeTime)
	}
	var delay float64
	if e.uplink != nil {
		delay = e.uplink.Send(bits)
	}
	e.mu.Lock()
	e.stats.EncodeTime += encodeTime
	e.stats.DemandFetchBits += bits
	e.stats.DemandFetches++
	if delay > e.stats.MaxUplinkDelay {
		e.stats.MaxUplinkDelay = delay
	}
	e.mu.Unlock()
	return recons, bits, nil
}

// Meta returns the event-ID metadata recorded for a frame (nil when
// the frame matched no MC, or when the frame has aged out of the
// retention window — metadata is evicted alongside retained frames).
// Safe to call while another goroutine owns the pipeline.
func (e *EdgeNode) Meta(frame int) FrameMeta {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.meta[frame]
	if m == nil {
		return nil
	}
	out := make(FrameMeta, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// ProcessFrame pushes the next frame of the stream through the
// pipeline and returns any uploads that became ready. The base DNN
// runs to completion, then every MC consumes the shared feature maps
// (§4.4). With Config.MCWorkers > 1 the MC classifications run
// concurrently across a goroutine fan-out; event assembly still runs
// serially in deployment order, so results are identical to the
// serial schedule. Segment encoding is pipelined: each frame decided
// positive is handed to the node's encode lane, which codes it while
// later frames run the base DNN and MCs. The call that closes a
// segment waits only for that segment's frames still on the lane and
// returns its upload, byte-identical to coding the segment at once.
func (e *EdgeNode) ProcessFrame(img *vision.Image) ([]Upload, error) {
	if len(e.mcs) == 0 {
		return nil, fmt.Errorf("core: no microclassifiers deployed")
	}
	if img.W != e.cfg.FrameWidth || img.H != e.cfg.FrameHeight {
		return nil, fmt.Errorf("core: frame %dx%d does not match stream %dx%d", img.W, img.H, e.cfg.FrameWidth, e.cfg.FrameHeight)
	}
	o := e.obs
	var tFrame time.Time
	if o != nil {
		tFrame = time.Now()
	}
	idx := e.nextFrame
	e.nextFrame++
	e.retain(idx, img)
	if e.uplink != nil {
		e.uplink.Advance(1 / float64(e.cfg.FPS))
	}
	var archivedBits int64
	var archiveTime time.Duration
	if e.archive != nil {
		ta := time.Now()
		out := e.archive.Encode(img)
		archivedBits = out.Bits
		archiveTime = time.Since(ta)
		if o != nil {
			o.ArchiveEncode.Observe(archiveTime)
			o.Trace.Record(obs.StageArchiveEncode, e.sid, int64(idx), ta, archiveTime)
		}
	}

	// Frame ingest: decode the incoming pixels into the base DNN's
	// input tensor (an arena, reused every frame). The frame counts as
	// ingested from here on — even if a later phase errors,
	// nextFrame/retention/uplink state has advanced, so Frames must
	// agree.
	td := time.Now()
	x := img.ToTensorInto(e.xbuf)
	decodeTime := time.Since(td)
	e.mu.Lock()
	e.stats.Frames++
	e.stats.ArchivedBits += archivedBits
	e.stats.ArchiveTime += archiveTime
	e.stats.DecodeTime += decodeTime
	e.mu.Unlock()
	if o != nil {
		o.Frames.Inc()
		o.Decode.Observe(decodeTime)
		o.Trace.Record(obs.StageDecode, e.sid, int64(idx), td, decodeTime)
	}

	// Persist the original frame to the attached archive (the write
	// lands asynchronously; demand-fetch reads barrier on the writer).
	if e.store != nil {
		if _, err := e.store.Append(img, archivedBits); err != nil {
			return nil, fmt.Errorf("core: archive frame %d: %w", idx, err)
		}
	}

	// Phase 1: the shared base DNN, run once for the union of stages on
	// this node's frozen fast path. The returned map and tensors are
	// the extractor's arena, reused next frame — phase 2 consumes them
	// within this frame (windowed MCs copy what they buffer).
	t0 := time.Now()
	maps, err := e.ext.ExtractMulti(x, e.stages)
	if err != nil {
		return nil, err
	}
	baseTime := time.Since(t0)
	if o != nil {
		o.Extract.Observe(baseTime)
		o.Trace.Record(obs.StageExtract, e.sid, int64(idx), t0, baseTime)
	}

	// Phase 2a: every MC consumes the shared maps. Each MC is pure
	// independent compute here (its streaming state is touched only by
	// its own Push), so the fan-out is deterministic; per-MC timing is
	// written to a private slot and aggregated after the join. The
	// fan-out body and result slots are node fields: rebuilding them
	// per frame would allocate.
	e.curMaps = maps
	nn.ForEach(len(e.mcs), e.cfg.MCWorkers, e.mcRun)
	// Canary candidates consume the same maps in their own fan-out;
	// their results are copies (see shadowRun), never pipeline inputs.
	if len(e.shadows) > 0 {
		nn.ForEach(len(e.shadows), e.cfg.MCWorkers, e.shadowRun)
	}
	e.curMaps = nil

	e.mu.Lock()
	e.stats.BaseDNNTime += baseTime
	for i, d := range e.mcs {
		e.stats.MCTime += e.steps[i].dt
		e.stats.MCTimeBy[d.mc.Spec().Name] += e.steps[i].dt
	}
	e.mu.Unlock()

	// Phase 2b: smoothing, event assembly, and segment closes run
	// serially in deployment order — they share the uplink and the
	// frame metadata, and their ordering defines event IDs and bit
	// accounting. Only the coding of segment frames leaves this
	// goroutine (see encodeLane).
	var uploads []Upload
	for i, d := range e.mcs {
		for _, c := range e.steps[i].cls {
			ups, err := e.observe(d, c)
			if err != nil {
				return nil, err
			}
			uploads = append(uploads, ups...)
		}
	}
	// Shadow candidates only record scores: no smoothing, no events,
	// no uploads. The cls slices are the shadow's own copies, so this
	// read cannot race the MCs' ring reuse.
	for _, s := range e.shadows {
		for _, c := range s.cls {
			s.sketch.Observe(float64(c.Prob), c.Prob >= s.threshold)
		}
		s.scored += len(s.cls)
	}
	e.evict()
	if o != nil {
		o.Trace.RecordFrame(e.sid, int64(idx), tFrame, time.Since(tFrame))
		o.Frame.Observe(time.Since(tFrame))
	}
	return uploads, nil
}

// Flush drains classifier and smoother tails and closes all open
// events, returning the final uploads.
func (e *EdgeNode) Flush() ([]Upload, error) {
	var uploads []Upload
	for _, d := range e.mcs {
		ups, err := e.flushMC(d)
		if err != nil {
			return nil, err
		}
		uploads = append(uploads, ups...)
	}
	// Windowed shadow candidates have classification tails too; drain
	// them into their sketches so the canary window sees every frame.
	for _, s := range e.shadows {
		cls := s.mc.Flush()
		for _, c := range cls {
			s.sketch.Observe(float64(c.Prob), c.Prob >= s.threshold)
		}
		s.scored += len(cls)
	}
	return uploads, nil
}

// flushMC drains one deployed MC's classifier and smoother tails and
// closes its open event, if any.
func (e *EdgeNode) flushMC(d *deployedMC) ([]Upload, error) {
	var uploads []Upload
	for _, c := range d.mc.Flush() {
		ups, err := e.observe(d, c)
		if err != nil {
			return nil, err
		}
		uploads = append(uploads, ups...)
	}
	for _, dec := range d.smoother.Flush() {
		ups, err := e.decide(d, dec)
		if err != nil {
			return nil, err
		}
		uploads = append(uploads, ups...)
	}
	if d.openID != 0 {
		up, err := e.closeSegment(d, e.nextFrame, true)
		if err != nil {
			return nil, err
		}
		uploads = append(uploads, up)
	}
	return uploads, nil
}

// observe feeds one raw classification into smoothing and event
// assembly.
func (e *EdgeNode) observe(d *deployedMC, c filter.Classification) ([]Upload, error) {
	var uploads []Upload
	for _, dec := range d.smoother.Push(c.Prob >= d.threshold) {
		ups, err := e.decide(d, dec)
		if err != nil {
			return nil, err
		}
		uploads = append(uploads, ups...)
	}
	return uploads, nil
}

// decide handles one smoothed frame decision: transition detection,
// metadata, segment assembly, and chunked upload. Decision frames are
// in the MC's local counting; d.offset maps them to stream indices.
func (e *EdgeNode) decide(d *deployedMC, dec event.Decision) ([]Upload, error) {
	frame := d.offset + dec.Frame
	id, started := d.detector.Observe(dec.Positive)
	var uploads []Upload
	if !dec.Positive {
		if d.openID != 0 {
			up, err := e.closeSegment(d, frame, true)
			if err != nil {
				return nil, err
			}
			uploads = append(uploads, up)
		}
		return uploads, nil
	}
	if started {
		d.openID = id
		d.segStart = frame
		d.segFrames = 0
	}
	e.mu.Lock()
	m := e.meta[frame]
	if m == nil {
		m = make(FrameMeta)
		e.meta[frame] = m
	}
	m[d.mc.Spec().Name] = id
	e.mu.Unlock()
	d.segFrames++
	if d.segFrames < e.cfg.MaxChunkFrames {
		e.handOver(d, frame)
		return uploads, nil
	}
	// The chunk's last frame is coded inline by closeSegment: handing
	// it over would only make this goroutine wait for it.
	up, err := e.closeSegment(d, frame+1, false)
	if err != nil {
		return nil, err
	}
	uploads = append(uploads, up)
	// Continue the same event in a fresh chunk.
	d.openID = id
	d.segStart = frame + 1
	d.segFrames = 0
	return uploads, nil
}

// handOver queues frame, just decided positive, on the encode lane
// for d's open segment. Frames are taken only in order: one already
// evicted stops the hand-over, and closeSegment reports the eviction.
func (e *EdgeNode) handOver(d *deployedMC, frame int) {
	if d.seg == nil {
		d.seg = e.newSegEncode()
	}
	img := e.retained(frame)
	if img == nil || frame != d.segStart+d.seg.sent {
		return
	}
	d.seg.sent++
	e.lane.submit(d.seg, img)
}

func (e *EdgeNode) newSegEncode() *segEncode {
	return &segEncode{
		enc: codec.NewEncoder(codec.Config{
			Width: e.cfg.FrameWidth, Height: e.cfg.FrameHeight, FPS: e.cfg.FPS,
			TargetBitrate: e.cfg.UploadBitrate,
		}),
		keep: e.cfg.KeepReconstructions,
	}
}

// closeSegment finishes coding the open segment [segStart, end) at the
// upload bitrate and sends it over the uplink. It waits for the
// segment's frames still on the encode lane, then codes inline the
// frames never handed over: a chunk's last frame, and the tail that
// Flush, Undeploy and PromoteShadow close past the last decided frame.
func (e *EdgeNode) closeSegment(d *deployedMC, end int, final bool) (Upload, error) {
	start, id, seg := d.segStart, d.openID, d.seg
	d.openID, d.seg = 0, nil
	if seg != nil {
		e.lane.wait(seg)
	}
	if end <= start {
		return Upload{MCName: d.mc.Spec().Name, EventID: id, Start: start, End: start, Final: final}, nil
	}
	for f := start; f < end; f++ {
		if e.retained(f) == nil {
			return Upload{}, fmt.Errorf("core: frame %d evicted before upload (increase RetainFrames)", f)
		}
	}
	if seg == nil {
		seg = e.newSegEncode()
	}
	for f := start + seg.sent; f < end; f++ {
		seg.encode(e.retained(f))
	}
	if e.obs != nil {
		// One span per segment: it starts where coding began and lasts
		// the summed coding time, not the wall time the lane spread it
		// over.
		e.obs.Encode.Observe(seg.took)
		e.obs.Trace.Record(obs.StageEncode, e.sid, int64(start), seg.first, seg.took)
	}

	up := Upload{MCName: d.mc.Spec().Name, EventID: id, Start: start, End: end, Bits: seg.bits, Final: final, Frames: seg.recons}
	if e.uplink != nil {
		up.Delay = e.uplink.Send(up.Bits)
	}
	e.mu.Lock()
	e.stats.EncodeTime += seg.took
	if up.Delay > e.stats.MaxUplinkDelay {
		e.stats.MaxUplinkDelay = up.Delay
	}
	e.stats.UploadedBits += up.Bits
	e.stats.UploadedFrames += end - start
	e.stats.Uploads++
	e.mu.Unlock()
	return up, nil
}

// stageUnion returns the distinct base-DNN stages needed by the
// deployed MCs and shadow candidates.
func (e *EdgeNode) stageUnion() []string {
	seen := make(map[string]bool)
	var stages []string
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			stages = append(stages, s)
		}
	}
	for _, d := range e.mcs {
		add(d.mc.Stage())
	}
	for _, s := range e.shadows {
		add(s.mc.Stage())
	}
	return stages
}

// retain stores an original frame in the ring buffer.
func (e *EdgeNode) retain(idx int, img *vision.Image) {
	e.frames[idx%len(e.frames)] = img
}

// retained returns the ring's copy of frame f, nil when it has aged
// out (or was never stored).
func (e *EdgeNode) retained(f int) *vision.Image {
	if f < e.oldestKept || f >= e.nextFrame {
		return nil
	}
	return e.frames[f%len(e.frames)]
}

// evict drops frames that have fallen out of the retention window,
// along with their event-ID metadata — the ring and the metadata map
// are bounded by RetainFrames, so arbitrarily long runs hold constant
// memory.
func (e *EdgeNode) evict() {
	e.mu.Lock()
	for e.oldestKept < e.nextFrame-e.cfg.RetainFrames {
		e.frames[e.oldestKept%len(e.frames)] = nil
		delete(e.meta, e.oldestKept)
		e.oldestKept++
	}
	e.mu.Unlock()
}
