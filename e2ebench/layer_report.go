package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/transport"
)

// layerReport assembles the per-layer metrics of a traced run, writes
// the Chrome trace and the per-layer table, and adds the
// reconciliation and obs cross-check to the notes.
func (b *bench) layerReport(o options, rep *report, untraced, traced phase, rp *replayer,
	recs []recovery, backlog int, before, after stateDir, ledgerUploads int) error {
	spans, dropped := b.tr.snapshot()
	st := spanStats(spans)
	p := func(name string, q float64) float64 {
		xs := st[name]
		if len(xs) == 0 {
			return 0
		}
		if q == 0.99 {
			return summarize(xs).Tail
		}
		return median(xs)
	}
	count := func(name string) float64 { return float64(len(st[name])) }
	n := func(name string) string { return fmt.Sprintf("n=%d", len(st[name])) }

	rc := reconcile(spans)
	rep.add("core.process_frame_p50_us", p("core.process_frame", 0.5), "us", n("core.process_frame"))
	rep.add("core.process_frame_p99_us", p("core.process_frame", 0.99), "us", tailNote(summarize(st["core.process_frame"])))
	rep.add("core.self_p50_us", median(rc.coreSelfUS), "us", "process_frame minus the layer self-times of the same frame")

	first := b.agents[0]
	m, err := madds(b, first)
	if err != nil {
		return err
	}
	rep.add("mobilenet.extract_p50_us", p("mobilenet.extract", 0.5), "us", n("mobilenet.extract"))
	rep.add("mobilenet.extract_p99_us", p("mobilenet.extract", 0.99), "us", "")
	rep.add("mobilenet.extract_calls", count("mobilenet.extract"), "count", "")
	rep.add("mobilenet.madds_per_frame", float64(m), "madds", "base DNN to the deepest tap plus every MC")

	passFrac := 0.0
	if rp.classifications > 0 {
		passFrac = float64(rp.passes) / float64(rp.classifications)
	}
	rep.add("filter.push_p50_us", p("filter.push", 0.5), "us", n("filter.push"))
	rep.add("filter.push_p99_us", p("filter.push", 0.99), "us", "")
	rep.add("filter.push_calls", count("filter.push"), "count", "")
	rep.add("filter.pass_frac", passFrac, "ratio", fmt.Sprintf("%d of %d classifications", rp.passes, rp.classifications))
	rep.add("event.smoother_p50_us", p("event.smoother", 0.5), "us", n("event.smoother"))

	bitsPerSeg := 0.0
	if rp.segments > 0 {
		bitsPerSeg = float64(rp.segmentBits) / float64(rp.segments)
	}
	segMS := func(q float64) float64 { return p("codec.segment_encode", q) / 1e3 }
	rep.add("codec.segment_encode_p50_ms", segMS(0.5), "ms", n("codec.segment_encode"))
	rep.add("codec.segment_encode_p99_ms", segMS(0.99), "ms", tailNote(summarize(st["codec.segment_encode"])))
	rep.add("codec.segments", float64(rp.segments), "count", "")
	rep.add("codec.bits_per_segment", bitsPerSeg, "bits", "")

	var archBytes, archFrames int64
	for _, e := range b.agents {
		for _, s := range e.streams {
			if as, ok := e.agent.ArchiveStats(s); ok {
				archBytes += as.Bytes
				archFrames += int64(as.Frames)
			}
		}
	}
	archNote := ""
	if !b.wl.archive {
		archNote = "absent: no archive on this workload"
	}
	rep.add("archive.encode_p50_us", p("archive.encode", 0.5), "us", archNote)
	rep.add("archive.append_p50_us", p("archive.append", 0.5), "us", archNote)
	rep.add("archive.append_p99_us", p("archive.append", 0.99), "us", archNote)
	rep.add("archive.bytes_per_frame", float64(archBytes)/float64(max(archFrames, 1)), "bytes", archNote)

	// Wire: what the agents' wrapped connections saw while tracing.
	var writes []float64
	var sent, bytesOut, bytesIn, hbBytes, hbCount int64
	lastWrite := make(map[upKey]time.Time)
	var recsSeen []transport.UploadRecord
	for _, e := range b.agents {
		w := &e.wire
		w.mu.Lock()
		writes = append(writes, w.uploadsUS...)
		sent += int64(len(w.sent))
		bytesOut += w.bytesOut
		bytesIn += w.bytesIn
		hbBytes += w.hbBytes
		hbCount += w.hbCount
		lw, rs := decodeSent(e.name, w.sent)
		w.mu.Unlock()
		for k, t := range lw {
			lastWrite[k] = t
		}
		recsSeen = append(recsSeen, rs...)
	}
	ws := summarize(writes)
	rtUS, rtAllocs, err := roundtrip(recsSeen)
	if err != nil {
		return err
	}
	per := func(v int64) float64 { return float64(v) / float64(max(sent, 1)) }
	rep.add("transport.write_p50_us", ws.P50, "us", fmt.Sprintf("upload records, n=%d", ws.N))
	rep.add("transport.write_p99_us", ws.Tail, "us", tailNote(ws))
	rep.add("transport.bytes_out_per_upload", per(bytesOut), "bytes", "all agent-written bytes per upload record")
	rep.add("transport.bytes_in_per_upload", per(bytesIn), "bytes", "all agent-read bytes per upload record")
	rep.add("transport.heartbeat_bytes", float64(hbBytes)/float64(max(hbCount, 1)), "bytes", fmt.Sprintf("per heartbeat record, n=%d", hbCount))
	rep.add("transport.upload_roundtrip_us", rtUS, "us", "WriteRecord+ReadRecord+DecodeRecord, median")
	rep.add("transport.upload_roundtrip_allocs", rtAllocs, "count", "heap allocations per round trip")

	var s2d []float64
	for k, t := range lastWrite {
		if at, ok := b.led.durableTime(k); ok && at.After(t) {
			s2d = append(s2d, us(at.Sub(t)))
		}
	}
	sd := summarize(s2d)
	emitted, durable := b.led.timedCounts(traced.start, traced.end)
	reconnects := 0
	for _, e := range b.agents {
		reconnects += e.agent.Reconnects()
	}
	var reconnectMS, replayMS, replayed, snapRead []float64
	for _, r := range recs {
		for _, d := range r.reconnect {
			reconnectMS = append(reconnectMS, ms(d))
		}
		replayMS = append(replayMS, ms(r.stats.Replay))
		replayed = append(replayed, float64(r.stats.RecordsReplayed))
		snapRead = append(snapRead, float64(r.stats.SnapshotBytes))
	}
	rep.add("fleet.send_to_durable_p50_us", sd.P50, "us", fmt.Sprintf("last upload write to OnUpload, n=%d", sd.N))
	rep.add("fleet.send_to_durable_p99_us", sd.Tail, "us", tailNote(sd))
	rep.add("fleet.backlog_max", float64(backlog), "count", "max summed PendingUploads, sampled every 1ms")
	rep.add("fleet.uploads_emitted", float64(emitted), "count", "traced phase")
	rep.add("fleet.uploads_durable", float64(durable), "count", "traced phase")
	rep.add("fleet.reconnects", float64(reconnects), "count", "")
	rep.add("fleet.reconnect_ms", median(reconnectMS), "ms", fmt.Sprintf("Serve until Connected, median of %d", len(reconnectMS)))

	recSize := 0
	if after.walRecords > 0 {
		recSize = int(after.walRecBytes / int64(after.walRecords))
	}
	// The snapshot a compaction writes holds the whole state: take the
	// larger of what the state dir shows and what recoveries read.
	snapSize := int(max(float64(after.snapshotBytes), median(snapRead)) / float64(max(b.wl.shards, 1)))
	appendUS, syncUS, snapMS, err := walogMicro(filepath.Join(b.root, "walog-scratch"), max(recSize, 1), max(snapSize, 1))
	if err != nil {
		return err
	}
	as, ss := summarize(appendUS), summarize(syncUS)
	scratch := fmt.Sprintf("scratch log, %dB records", recSize)
	rep.add("walog.append_p50_us", as.P50, "us", scratch)
	rep.add("walog.append_p99_us", as.Tail, "us", "")
	rep.add("walog.sync_p50_us", ss.P50, "us", "")
	rep.add("walog.sync_p99_us", ss.Tail, "us", "")
	rep.add("walog.snapshot_write_ms", median(snapMS), "ms", fmt.Sprintf("%dB snapshot, median of %d", snapSize, len(snapMS)))
	rep.add("walog.snapshots", float64(after.gens-before.gens), "count", "wal generation advance over the traced phase")
	rep.add("walog.snapshot_bytes", float64(after.snapshotBytes), "bytes", "all shards, end of traced phase")
	rep.add("walog.dir_bytes_per_upload", float64(after.totalBytes)/float64(max(ledgerUploads, 1)), "bytes", fmt.Sprintf("%d ledger uploads", ledgerUploads))
	rep.add("walog.replay_ms", median(replayMS), "ms", fmt.Sprintf("median of %d recoveries", len(recs)))
	rep.add("walog.records_replayed", median(replayed), "count", "")
	rep.add("walog.snapshot_bytes_read", median(snapRead), "bytes", "")

	uFPS := float64(untraced.loop.Frames) / untraced.end.Sub(untraced.start).Seconds()
	tFPS := float64(traced.loop.Frames) / traced.end.Sub(traced.start).Seconds()
	rep.add("trace.overhead_fps", tFPS-uFPS, "frames/s", fmt.Sprintf("traced %.1f minus untraced %.1f", tFPS, uFPS))
	rep.add("trace.unaccounted_share", rc.share(), "ratio", fmt.Sprintf("tolerance ±%.2f", reconcileTolerance))
	late := summarize(append(append([]float64(nil), untraced.loop.Late...), traced.loop.Late...))
	rep.add("loop.late_p99_ms", late.Tail, "ms", "open-loop generator lateness (0 on closed loops)")

	verdict := "reconciles"
	if !rc.ok() {
		verdict = "DOES NOT reconcile"
	}
	rep.notef("reconciliation: over %d replayed frames the layer self-times leave %.1f%% of core.process_frame unaccounted; %s within ±%.0f%%",
		rc.frames, 100*rc.share(), verdict, 100*reconcileTolerance)
	rep.notef("replay checks: %d segment encodes and %d archive encodes disagreed with the node's bits", rp.codecMismatch, rp.archiveMismatch)
	rep.notef("obs cross-check (reported, not gated):")
	rep.notef("  %s", crossCheck("extract", st["mobilenet.extract"], rp.obs.Extract))
	rep.notef("  %s", crossCheck("mc_push", st["filter.push"], rp.obs.MCPush))
	rep.notef("  %s", crossCheck("encode", st["codec.segment_encode"], rp.obs.Encode))
	rep.notef("  %s", crossCheck("archive_encode", st["archive.encode"], rp.obs.ArchiveEncode))
	if dropped > 0 {
		rep.notef("tracer dropped %d spans beyond its buffer", dropped)
	}

	base := fmt.Sprintf("%s-seed%d", b.wl.name, b.seed)
	tracePath := filepath.Join(o.out, base+".trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans, map[string]any{"host": probeHost(), "workload": b.wl.name, "seed": b.seed}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep.notef("chrome trace: %s (%d spans)", tracePath, len(spans))
	return writeTable(filepath.Join(o.out, base+".layers.txt"), rep)
}

func writeTable(path string, rep *report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, m := range rep.metrics {
		fmt.Fprintf(f, "%-32s %14.4f %-9s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(f, n)
	}
	return f.Close()
}
