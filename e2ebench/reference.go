package main

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/filter"
)

// reference replays every stream's frames, in the order the agent
// processed them, through a fresh sequential core.EdgeNode and
// compares the uploads with what the agent emitted. It returns how
// many uploads differ. With a replayer, each stream's first frames
// also go through the traced layer decomposition.
func (b *bench) reference(workers int, rp *replayer) (int, error) {
	type job struct {
		e *edge
		s int
	}
	var jobs []job
	for _, e := range b.edges() {
		for s := range e.streams {
			jobs = append(jobs, job{e, s})
		}
	}
	var (
		mu         sync.Mutex
		mismatches int
		firstErr   error
		wg         sync.WaitGroup
		next       = make(chan job)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				want, err := b.refStream(j.e, j.s, rp)
				got := b.led.emittedBy(j.e.name, j.e.streams[j.s]+"/")
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %s/%s: %w", j.e.name, j.e.streams[j.s], err)
				}
				mismatches += diffUploads(got, want)
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return mismatches, firstErr
}

// refStream runs stream s of e through a fresh edge node and returns
// its uploads named and ordered as the agent's multi-stream node
// emits them.
func (b *bench) refStream(e *edge, s int, rp *replayer) ([]core.Upload, error) {
	cfg := e.cfg
	if rp != nil {
		cfg.Obs = rp.obs
	}
	node, err := core.NewEdgeNode(cfg)
	if err != nil {
		return nil, err
	}
	for _, d := range e.mcs {
		mc, err := filter.NewMC(d.spec, b.base, e.cfg.FrameWidth, e.cfg.FrameHeight)
		if err != nil {
			return nil, err
		}
		if err := node.Deploy(mc, d.threshold); err != nil {
			return nil, err
		}
	}
	var sr *streamReplay
	if rp != nil {
		if sr, err = rp.stream(b, e, s, node); err != nil {
			return nil, err
		}
		defer sr.close()
	}
	var all []core.Upload
	for i := 0; i < e.next[s]; i++ {
		var ups []core.Upload
		if sr != nil && i < rp.frames {
			ups, err = sr.frame(i, e.frame(s, i))
		} else {
			ups, err = node.ProcessFrame(e.frame(s, i))
		}
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		all = append(all, ups...)
	}
	tail, err := node.Flush()
	if err != nil {
		return nil, err
	}
	all = append(all, tail...)
	for i := range all {
		all[i].MCName = e.streams[s] + "/" + all[i].MCName
	}
	sortUploads(all)
	return all, nil
}

// diffUploads counts the uploads that differ between two ordered
// lists, position by position, plus any length difference.
func diffUploads(got, want []core.Upload) int {
	n := len(got) - len(want)
	if n < 0 {
		n = -n
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if !sameUpload(got[i], want[i]) {
			n++
		}
	}
	return n
}
