package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/fleet"
	"repro/internal/mobilenet"
	"repro/internal/transport"
	"repro/internal/vision"
)

const (
	// baseWidth is the base DNN's width multiplier: the default 1.0
	// was about 20x slower per frame at these sizes, so every workload
	// would measure nothing but the base DNN.
	baseWidth = 0.25
	// poolFrames is how many distinct frames each camera cycles
	// through; they are rendered during set-up.
	poolFrames = 128
	fps        = 30
	heartbeat  = 250 * time.Millisecond
	warmFrames = 8 // per stream, before the timed phase
	// drainWait bounds how long the benchmark waits for emitted
	// uploads to become durable before counting them as lost.
	drainWait = 30 * time.Second
	// fillMCs shapes restart's ledger fill: each filler node (one per
	// shard) runs fillMCs always-positive MCs with one-frame chunks, so
	// every frame yields fillMCs uploads through the real agent, wire,
	// ledger and WAL path.
	fillMCs = 8
)

// edge is one fleet.Agent and the frames the benchmark feeds it.
type edge struct {
	name     string
	agent    *fleet.Agent
	cfg      core.Config // the agent's Edge config, for reference runs
	mcs      []mcDef
	streams  []string
	pools    [][]*vision.Image
	next     []int // frames issued per stream
	dials    atomic.Int64
	wire     wireStats
	curFrame atomic.Uint64 // span id of the frame call in flight (traced)
}

// frame returns the i-th frame of local stream s.
func (e *edge) frame(s, i int) *vision.Image { return e.pools[s][i%len(e.pools[s])] }

// bench is one set-up fleet: a durable controller on loopback TCP and
// the workload's agents.
type bench struct {
	wl      workload
	seed    int64
	root    string
	traced  bool // wrap agent connections (a --trace 1 run)
	tracing atomic.Bool
	tr      *tracer

	base    *mobilenet.Model
	ctrlCfg fleet.ControllerConfig
	ctrlMu  sync.Mutex
	ctrl    *fleet.Controller
	addr    string
	agents  []*edge
	fillers []*edge
	led     *ledger
}

func (b *bench) controller() *fleet.Controller {
	b.ctrlMu.Lock()
	defer b.ctrlMu.Unlock()
	return b.ctrl
}

// setup builds everything a run needs before its clock starts: the
// base model, MCs, pre-rendered frames, the controller, connected
// agents, and for restart the filled ledger.
func setup(wl workload, seed int64, root string, traced bool) (*bench, error) {
	b := &bench{wl: wl, seed: seed, root: root, traced: traced, led: newLedger(), tr: newTracer(400_000)}
	b.base = mobilenet.New(mobilenet.Config{WidthMult: baseWidth, Seed: seed})
	b.ctrlCfg = fleet.ControllerConfig{
		Timeout:  10 * time.Second,
		Shards:   wl.shards,
		StateDir: filepath.Join(root, "state"),
		WALSync:  wl.walSync,
		OnUpload: func(s *fleet.Session, u core.Upload) { b.led.durable(s.Node(), u, time.Now()) },
	}
	ctrl, _, err := fleet.OpenController(b.ctrlCfg)
	if err != nil {
		return nil, fmt.Errorf("open controller: %w", err)
	}
	b.ctrl = ctrl
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ctrl.Close()
		return nil, err
	}
	b.addr = ln.Addr().String()
	ctrl.Serve(ln)

	// The fill runs first and disconnects its nodes, so no more than
	// one connection per CPU is ever open.
	if wl.fillUploads > 0 {
		if err := b.fill(); err != nil {
			b.close()
			return nil, fmt.Errorf("ledger fill: %w", err)
		}
	}
	for i, name := range placeNodes(ctrl, "edge", wl.agents) {
		e, err := b.newEdge(name, wl.streams, wl.mcs, wl.maxChunk, wl.archive, 0, seed*1000+int64(i)*16)
		if err != nil {
			b.close()
			return nil, err
		}
		b.agents = append(b.agents, e)
	}
	// The first frames compile each MC's inference program and size
	// the pipeline's arenas. A deployment pays that once, so it is
	// set-up work, not part of the timed phase.
	for _, e := range b.agents {
		for s := range e.streams {
			for i := 0; i < warmFrames; i++ {
				ups, err := e.agent.ProcessFrame(e.streams[s], e.frame(s, e.next[s]))
				e.next[s]++
				b.led.emit(e.name, ups, time.Now(), false)
				if err != nil {
					b.close()
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
	}
	return b, nil
}

// edges returns the workload's agents and the restart fill's nodes.
func (b *bench) edges() []*edge {
	return append(append([]*edge(nil), b.agents...), b.fillers...)
}

// placeNodes picks n node names that the controller's ring places on
// distinct shards (round-robin once every shard has one).
func placeNodes(ctrl *fleet.Controller, prefix string, n int) []string {
	used := make(map[int]bool)
	var names []string
	for i := 0; len(names) < n; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		sh := ctrl.ShardOf(name)
		if used[sh] && len(used) < ctrl.NumShards() {
			continue
		}
		used[sh] = true
		names = append(names, name)
	}
	return names
}

func (b *bench) newEdge(name string, streams int, mcs []mcDef, maxChunk int, archive bool, maxPending int, frameSeed int64) (*edge, error) {
	wl := b.wl
	e := &edge{name: name, mcs: mcs}
	e.cfg = core.Config{
		FrameWidth: wl.w, FrameHeight: wl.h, FPS: fps, Base: b.base,
		UploadBitrate: wl.uploadBitrate, MaxChunkFrames: maxChunk, ArchiveToDisk: archive,
	}
	acfg := fleet.AgentConfig{
		Node: name, Edge: e.cfg, Heartbeat: heartbeat,
		Reconnect: true, ReconnectMin: 2 * time.Millisecond, ReconnectMax: 20 * time.Millisecond,
		ReconnectSeed: b.seed, WriteTimeout: 10 * time.Second, MaxPending: maxPending,
		Dial: func(network, addr string) (net.Conn, error) {
			conn, err := net.Dial(network, addr)
			if err != nil {
				return nil, err
			}
			e.dials.Add(1)
			if b.traced {
				return &tracedConn{Conn: conn, b: b, e: e}, nil
			}
			return conn, nil
		},
	}
	if archive {
		acfg.ArchiveDir = filepath.Join(b.root, "archive", name)
	}
	a, err := fleet.NewAgent(acfg)
	if err != nil {
		return nil, err
	}
	e.agent = a
	for s := 0; s < streams; s++ {
		sname := fmt.Sprintf("cam%d", s)
		en, err := a.AddStream(sname, wl.w, wl.h, nil)
		if err != nil {
			a.Close()
			return nil, err
		}
		for _, d := range mcs {
			mc, err := filter.NewMC(d.spec, b.base, wl.w, wl.h)
			if err != nil {
				a.Close()
				return nil, err
			}
			if err := en.Deploy(mc, d.threshold); err != nil {
				a.Close()
				return nil, err
			}
		}
		e.streams = append(e.streams, sname)
		e.pools = append(e.pools, renderPool(wl.w, wl.h, poolFrames, frameSeed+int64(s)+1))
		e.next = append(e.next, 0)
	}
	if err := a.Connect("tcp", b.addr); err != nil {
		a.Close()
		return nil, fmt.Errorf("connect %s: %w", name, err)
	}
	return e, nil
}

// fill drives filler nodes, one per shard, until the ledger holds
// wl.fillUploads uploads, then disconnects them: their records stay in
// the controller's state and every recovery replays them.
func (b *bench) fill() error {
	var mcs []mcDef
	for i := 0; i < fillMCs; i++ {
		mcs = append(mcs, mcDef{
			spec:      filter.Spec{Name: fmt.Sprintf("fill%d", i), Arch: filter.PoolingClassifier, Seed: int64(200 + i)},
			threshold: alwaysPositive,
		})
	}
	names := placeNodes(b.controller(), "fill", b.wl.shards)
	for i, name := range names {
		// Unbounded resend buffer: the filler outruns acks on purpose.
		f, err := b.newEdge(name, 1, mcs, 1, false, -1, b.seed*1000+500+int64(i))
		if err != nil {
			return err
		}
		b.fillers = append(b.fillers, f)
	}
	perFiller := b.wl.fillUploads / len(b.fillers)
	errs := make([]error, len(b.fillers))
	var wg sync.WaitGroup
	for i, f := range b.fillers {
		wg.Add(1)
		go func(i int, f *edge) {
			defer wg.Done()
			for sent := 0; sent < perFiller; {
				ups, err := f.agent.ProcessFrame(f.streams[0], f.frame(0, f.next[0]))
				f.next[0]++
				if err != nil {
					errs[i] = err
					return
				}
				b.led.emit(f.name, ups, time.Now(), false)
				sent += len(ups)
			}
			ups, err := f.agent.Flush()
			b.led.emit(f.name, ups, time.Now(), false)
			errs[i] = err
		}(i, f)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if err := b.drain(b.fillers); err != nil {
		return err
	}
	for _, f := range b.fillers {
		f.agent.Close()
	}
	return nil
}

// drain waits until every emitted upload is durable and the given
// agents' resend buffers are empty.
func (b *bench) drain(edges []*edge) error {
	deadline := time.Now().Add(drainWait)
	for {
		idle := b.led.pending() == 0
		for _, e := range edges {
			if p, _ := e.agent.PendingUploads(); p != 0 {
				idle = false
			}
		}
		if idle {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d uploads still not durable after %v", b.led.pending(), drainWait)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// close stops every agent and the controller and deletes the run's
// files.
func (b *bench) close() {
	var wg sync.WaitGroup
	for _, e := range b.edges() {
		wg.Add(1)
		go func(e *edge) { defer wg.Done(); e.agent.Close() }(e)
	}
	wg.Wait()
	if c := b.controller(); c != nil {
		c.Crash()
	}
	os.RemoveAll(b.root)
}

// phase is what one timed phase measured.
type phase struct {
	loop       loopResult
	start, end time.Time
	recoveries []recovery
	cycles     []cycle // restart only
}

// cycle is one restart round: a batch of frames, the drain, and the
// crash recovery after it.
type cycle struct {
	frames, uploads int
	dur             time.Duration
}

// cycleRates returns the median per-cycle frame and durable-upload
// rates: a restart phase's throughput, robust to the odd cycle that an
// outside stall stretches.
func (p phase) cycleRates() (framesPerS, uploadsPerS float64) {
	var f, u []float64
	for _, c := range p.cycles {
		f = append(f, float64(c.frames)/c.dur.Seconds())
		u = append(u, float64(c.uploads)/c.dur.Seconds())
	}
	return median(f), median(u)
}

// runPhase drives the workload for d: an open or closed loop per
// agent, or for restart, crash/recover cycles each followed by a batch
// of frames.
func (b *bench) runPhase(d time.Duration) (phase, error) {
	if b.wl.restart {
		return b.restartPhase(d)
	}
	var p phase
	p.start = time.Now()
	end := p.start.Add(d)
	var period time.Duration
	if b.wl.rate > 0 {
		period = time.Duration(float64(time.Second) * float64(len(b.agents)) / b.wl.rate)
	}
	results := make([]loopResult, len(b.agents))
	var wg sync.WaitGroup
	for i, e := range b.agents {
		wg.Add(1)
		go func(i int, e *edge) {
			defer wg.Done()
			// Agents start a fraction of a period apart so their
			// frames interleave instead of arriving in pairs.
			start := p.start.Add(period * time.Duration(i) / time.Duration(len(b.agents)))
			results[i] = runLoop(wallClock{}, start, end, end.Add(d/2), period, 0, func(k int, due time.Time) error {
				return b.step(e, k%len(e.streams), due)
			})
		}(i, e)
	}
	wg.Wait()
	for _, r := range results {
		p.loop.merge(r)
	}
	p.end = time.Now()
	return p, nil
}

// step feeds one frame of stream s to e's agent and records what it
// returned.
func (b *bench) step(e *edge, s int, due time.Time) error {
	img := e.frame(s, e.next[s])
	e.next[s]++
	var id uint64
	var t0 time.Time
	tracing := b.tracing.Load()
	if tracing {
		id = b.tr.id()
		e.curFrame.Store(id)
		t0 = time.Now()
	}
	ups, err := e.agent.ProcessFrame(e.streams[s], img)
	if tracing {
		e.curFrame.Store(0)
		b.tr.add(span{ID: id, Name: "fleet.process_frame", Req: fmt.Sprintf("%s/%s/%d", e.name, e.streams[s], e.next[s]-1),
			Start: t0, End: time.Now(), TID: 1 + b.agentIndex(e)})
	}
	b.led.emit(e.name, ups, due, true)
	return err
}

func (b *bench) agentIndex(e *edge) int {
	for i, a := range b.agents {
		if a == e {
			return i
		}
	}
	return len(b.agents)
}

// restartPhase repeats: a closed-loop batch of frames on every agent,
// wait until durable, crash the controller, recover it from its state
// dir, and wait for the fleet to reconverge.
func (b *bench) restartPhase(d time.Duration) (phase, error) {
	var p phase
	p.start = time.Now()
	end := p.start.Add(d)
	for time.Now().Before(end) {
		t0 := time.Now()
		results := make([]loopResult, len(b.agents))
		var wg sync.WaitGroup
		for i, e := range b.agents {
			wg.Add(1)
			go func(i int, e *edge) {
				defer wg.Done()
				n := b.wl.batch * len(e.streams)
				results[i] = runLoop(wallClock{}, time.Now(), farFuture, farFuture, 0, n, func(k int, due time.Time) error {
					return b.step(e, k%len(e.streams), due)
				})
			}(i, e)
		}
		wg.Wait()
		frames := 0
		for _, r := range results {
			p.loop.merge(r)
			frames += r.Frames
		}
		if err := b.drain(b.agents); err != nil {
			return p, err
		}
		rec, err := b.crashRecover()
		if err != nil {
			return p, err
		}
		p.recoveries = append(p.recoveries, rec)
		t1 := time.Now()
		_, uploads := b.led.timedCounts(t0, t1)
		p.cycles = append(p.cycles, cycle{frames: frames, uploads: uploads, dur: t1.Sub(t0)})
	}
	p.end = time.Now()
	return p, nil
}

// farFuture leaves a count-limited closed loop without a time limit.
var farFuture = time.Now().Add(100 * 365 * 24 * time.Hour)

// recovery is one crash/recover/reconverge cycle.
type recovery struct {
	recover    time.Duration // OpenController on the crashed state dir
	reconverge time.Duration // Serve until the fleet is whole again
	stats      fleet.RecoveryStats
	reconnect  []time.Duration // per agent, Serve until Connected
}

// crashRecover kills the controller without a clean close, recovers a
// new one from the same state dir, and waits until every agent has
// reconnected, drained its resend buffer, and the recovered ledger
// holds every upload emitted so far. The new listener is bound before
// recovery starts so agents dial it while the controller replays; the
// reconverge time then measures the session resume, not the agents'
// backoff timers.
func (b *bench) crashRecover() (recovery, error) {
	var r recovery
	before := make([]int64, len(b.agents))
	for i, e := range b.agents {
		before[i] = e.dials.Load()
	}
	b.controller().Crash()
	ln, err := listenRetry(b.addr)
	if err != nil {
		return r, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < len(b.agents); {
		if b.agents[i].dials.Load() > before[i] {
			i++
			continue
		}
		if time.Now().After(deadline) {
			ln.Close()
			return r, fmt.Errorf("agent %s did not redial after the crash", b.agents[i].name)
		}
		time.Sleep(200 * time.Microsecond)
	}
	t0 := time.Now()
	ctrl, stats, err := fleet.OpenController(b.ctrlCfg)
	r.recover = time.Since(t0)
	if err != nil {
		ln.Close()
		return r, fmt.Errorf("recover: %w", err)
	}
	r.stats = *stats
	b.ctrlMu.Lock()
	b.ctrl = ctrl
	b.ctrlMu.Unlock()
	served := time.Now()
	ctrl.Serve(ln)
	r.reconnect = make([]time.Duration, len(b.agents))
	want := b.led.emittedCount()
	deadline = time.Now().Add(drainWait)
	for {
		whole := b.led.pending() == 0
		for i, e := range b.agents {
			if r.reconnect[i] == 0 && e.agent.Connected() {
				r.reconnect[i] = time.Since(served)
			}
			if p, _ := e.agent.PendingUploads(); r.reconnect[i] == 0 || p != 0 {
				whole = false
			}
		}
		if whole && ledgerTotal(ctrl) == want {
			r.reconverge = time.Since(served)
			return r, nil
		}
		if time.Now().After(deadline) {
			return r, fmt.Errorf("fleet did not reconverge within %v of the restart", drainWait)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func ledgerTotal(ctrl *fleet.Controller) int {
	n := 0
	for _, s := range ctrl.ShardStats() {
		n += s.Uploads
	}
	return n
}

// listenRetry binds addr again after the crashed controller released
// it.
func listenRetry(addr string) (net.Listener, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil || time.Now().After(deadline) {
			return ln, err
		}
		time.Sleep(time.Millisecond)
	}
}

// heapMB forces a collection and reports the live heap.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// flushAll drains every agent's pipeline tail and waits until the
// final uploads are durable.
func (b *bench) flushAll() error {
	var errs []error
	for _, e := range b.agents {
		ups, err := e.agent.Flush()
		b.led.emit(e.name, ups, time.Now(), false)
		errs = append(errs, err)
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return b.drain(b.agents)
}

// wireStats aggregates what a traced connection wrapper saw.
type wireStats struct {
	mu        sync.Mutex
	uploadsUS []float64  // per upload record write
	sent      []sentBody // upload record bodies with their write end
	bytesOut  int64
	bytesIn   int64
	hbBytes   int64
	hbCount   int64
}

type sentBody struct {
	end  time.Time
	body []byte
}

// tracedConn wraps an agent's connection. It follows the record
// framing in the written bytes (a 6-byte protocol header, then per
// record a 9-byte kind/length/crc header and the gob body, each in one
// Write) to time each upload record's write, keep a copy of its body
// for keying, and count heartbeat bytes. It records only while the
// bench is tracing but always tracks framing.
type tracedConn struct {
	net.Conn
	b         *bench
	e         *edge
	sawHeader bool
	kind      uint8
	remaining int
	size      int
	start     time.Time
	body      []byte
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.observe(p[:n], t0, time.Now())
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.b.tracing.Load() {
		c.e.wire.mu.Lock()
		c.e.wire.bytesIn += int64(n)
		c.e.wire.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) observe(p []byte, t0, t1 time.Time) {
	tracing := c.b.tracing.Load()
	if tracing {
		c.e.wire.mu.Lock()
		c.e.wire.bytesOut += int64(len(p))
		c.e.wire.mu.Unlock()
	}
	if !c.sawHeader {
		c.sawHeader = true
		if len(p) == 6 {
			return
		}
	}
	if c.remaining == 0 {
		if len(p) != 9 {
			return // not a record header: the framing changed
		}
		c.kind = p[0]
		c.remaining = int(binary.BigEndian.Uint32(p[1:5]))
		c.size = 9 + c.remaining
		c.start = t0
		c.body = c.body[:0]
		return
	}
	if c.kind == transport.KindUpload {
		c.body = append(c.body, p...)
	}
	c.remaining -= len(p)
	if c.remaining > 0 {
		return
	}
	c.remaining = 0
	if !tracing {
		return
	}
	w := &c.e.wire
	switch c.kind {
	case transport.KindUpload:
		c.b.tr.record("transport.write", c.e.name, c.e.curFrame.Load(), 1+c.b.agentIndex(c.e), c.start, t1)
		w.mu.Lock()
		w.uploadsUS = append(w.uploadsUS, us(t1.Sub(c.start)))
		w.sent = append(w.sent, sentBody{end: t1, body: append([]byte(nil), c.body...)})
		w.mu.Unlock()
	case transport.KindHeartbeat:
		w.mu.Lock()
		w.hbBytes += int64(c.size)
		w.hbCount++
		w.mu.Unlock()
	}
}
