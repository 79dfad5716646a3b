package main

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/tensor"
	"repro/internal/vision"
)

// Decision thresholds that pin an untrained MC's outcome: every
// probability passes alwaysPositive and none passes neverPositive, so
// the upload pattern is fixed by the workload, not by random weights.
const (
	alwaysPositive float32 = -1
	neverPositive  float32 = 2
)

type mcDef struct {
	spec      filter.Spec
	threshold float32
}

// workload is one fleet shape and driving mode. README.md records why
// each was chosen.
type workload struct {
	name            string
	agents, streams int // agents, and camera streams per agent
	w, h            int
	mcs             []mcDef // deployed on every stream
	maxChunk        int     // core.Config.MaxChunkFrames (0: default 48)
	uploadBitrate   float64
	archive         bool // Edge.ArchiveToDisk with a persistent ArchiveDir
	walSync         bool
	shards          int
	// rate is the total offered frame rate of an open loop, split
	// evenly over agents; 0 runs a closed loop.
	rate float64
	// restart makes the timed phase crash/recover/reconverge cycles,
	// each followed by batch frames per stream, after a set-up that
	// fills the ledger with fillUploads uploads.
	restart     bool
	batch       int
	fillUploads int
}

// recoverProbes is how many crash/recover cycles the workloads without
// a restart phase run after their timed phase, so recover_s and
// reconverge_s price the state each of them leaves behind.
const recoverProbes = 15

func workloads() []workload {
	fanout := workload{
		name: "edge-fanout", agents: 1, streams: 1, w: 96, h: 54,
		uploadBitrate: 100_000, shards: 1,
	}
	for i := 0; i < 16; i++ {
		thr := neverPositive
		if i == 0 {
			thr = alwaysPositive
		}
		fanout.mcs = append(fanout.mcs, mcDef{
			spec:      filter.Spec{Name: fmt.Sprintf("mc%02d", i), Arch: filter.LocalizedBinary, Seed: int64(100 + i)},
			threshold: thr,
		})
	}
	uplink := workload{
		name: "uplink-durable", agents: 2, streams: 4, w: 48, h: 27,
		mcs: []mcDef{{
			spec:      filter.Spec{Name: "pool", Arch: filter.PoolingClassifier, Seed: 7},
			threshold: alwaysPositive,
		}},
		maxChunk: 4, uploadBitrate: 30_000, archive: true, walSync: true, shards: 2,
		rate: uplinkRate,
	}
	restart := uplink
	restart.name = "restart"
	restart.rate = 0
	restart.restart = true
	restart.batch = 24
	restart.fillUploads = restartFill
	return []workload{fanout, uplink, restart}
}

// uplinkRate is uplink-durable's offered load in frames/s over the
// whole fleet. README.md gives the measurements behind the choice.
const uplinkRate = 400

// restartFill is the ledger size restart's set-up creates.
const restartFill = 16000

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// renderPool pre-renders n frames of one camera: a fixed background
// with a car and two pedestrians crossing it and per-frame sensor
// noise. The same seed gives the same frames; every seed gives the
// same kind of content, so coded sizes vary little between seeds.
func renderPool(w, h, n int, seed int64) []*vision.Image {
	rng := tensor.NewRNG(seed)
	scene := &vision.Scene{Background: vision.Background(w, h, nil, seed), NoiseStd: 0.02}
	color := func() [3]float32 { return [3]float32{rng.Float32(), rng.Float32(), rng.Float32()} }
	type mover struct {
		kind             vision.ObjectKind
		x, y, vx, ow, oh float64
		body, accent     [3]float32
	}
	fw, fh := float64(w), float64(h)
	movers := []mover{
		{vision.Car, rng.Uniform(0, fw), fh * 0.55, fw / 40, fw / 5, fh / 5, color(), color()},
		{vision.Pedestrian, rng.Uniform(0, fw), fh * 0.35, fw / 120, fw / 16, fh / 4, color(), color()},
		{vision.PedestrianRed, rng.Uniform(0, fw), fh * 0.6, -fw / 90, fw / 16, fh / 4, color(), [3]float32{0.9, 0.1, 0.1}},
	}
	pool := make([]*vision.Image, n)
	for i := range pool {
		objs := make([]*vision.Object, len(movers))
		for j, m := range movers {
			span := fw + m.ow
			x := m.x + m.vx*float64(i)
			x -= span * float64(int(x/span))
			if x < 0 {
				x += span
			}
			objs[j] = &vision.Object{Kind: m.kind, X: x - m.ow, Y: m.y, W: m.ow, H: m.oh, Body: m.body, Accent: m.accent}
		}
		pool[i] = scene.Render(objs, 1, tensor.NewRNG(seed*7919+int64(i)))
	}
	return pool
}
