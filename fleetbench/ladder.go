package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"dcsketch/internal/dcs"
	"dcsketch/internal/export"
	"dcsketch/internal/hashing"
	"dcsketch/internal/monitor"
	"dcsketch/internal/pipeline"
	"dcsketch/internal/tdcs"
	"dcsketch/internal/tracelog"
	"dcsketch/internal/wire"
)

// The ladder replays the run's own 512-record batches through one layer at
// a time, calling each layer's public functions directly, so layer costs
// can be added up against the fleet's CPU per update. Sketch layers first
// take the whole pool once, untimed: the closed loop replays the pool into
// a sketch that already holds it, and an empty sketch costs several times
// more per update.
const (
	ladderBatches = 256
	ladderReps    = 5
	// shardQueue mirrors the server's shard queue depth, in envelopes.
	shardQueue = 64
	records    = 1 << 20
)

var sink uint64 // keeps measured results alive

// ladder holds one layer measurement per metric name.
type ladder map[string]float64

// timed returns the median over ladderReps of f's duration in ns.
func timed(f func() error) (float64, error) {
	var ns []float64
	for i := 0; i < ladderReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
	}
	return median(ns), nil
}

// keyed returns b's updates as sketch keys, reusing buf.
func keyed(b *batch, buf []dcs.KeyDelta) []dcs.KeyDelta {
	buf = buf[:0]
	for _, u := range b.ups {
		buf = append(buf, dcs.KeyDelta{Key: hashing.PairKey(u.Src, u.Dst), Delta: u.Delta})
	}
	return buf
}

// warm feeds every batch of the pool to apply once.
func warm(in *inputs, apply func([]dcs.KeyDelta)) {
	var buf []dcs.KeyDelta
	for _, edge := range in.edges {
		for _, b := range edge {
			buf = keyed(b, buf)
			apply(buf)
		}
	}
}

// ladderPayloads encodes the ladder's batches as MsgSeqUpdates payloads.
func ladderPayloads(in *inputs) [][]byte {
	bs := in.edges[0]
	if len(bs) > ladderBatches {
		bs = bs[:ladderBatches]
	}
	out := make([][]byte, len(bs))
	for i, b := range bs {
		out[i] = wire.AppendSeqUpdates(nil, uint64(i+1), b.ups)
	}
	return out
}

func runLadder(in *inputs) (ladder, error) {
	bs := in.edges[0]
	if len(bs) > ladderBatches {
		bs = bs[:ladderBatches]
	}
	n := float64(len(bs) * batchSize)
	cfg := monitorConfig.Sketch
	keys := make([][]dcs.KeyDelta, len(bs))
	payloads := ladderPayloads(in)
	var bytes int
	for i, b := range bs {
		keys[i] = keyed(b, nil)
		bytes += len(payloads[i]) + 5 // frame header
	}
	l := ladder{"wire.bytes_per_update": float64(bytes) / n}
	perUpdate := func(name string, f func() error) error {
		ns, err := timed(f)
		l[name] = ns / n
		return err
	}
	replay := func(name string, apply func([]dcs.KeyDelta)) error {
		warm(in, apply)
		return perUpdate(name, func() error {
			for _, k := range keys {
				apply(k)
			}
			return nil
		})
	}

	if err := perUpdate("hashing.pairkey_ns", func() error {
		for _, b := range bs {
			for _, u := range b.ups {
				sink += hashing.PairKey(u.Src, u.Dst)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var buf []byte
	if err := perUpdate("wire.encode_ns", func() error {
		for i, b := range bs {
			buf = wire.AppendSeqUpdates(buf[:0], uint64(i+1), b.ups)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var dec []wire.Update
	if err := perUpdate("wire.decode_ns", func() error {
		for _, p := range payloads {
			var err error
			if _, dec, err = wire.DecodeSeqUpdatesInto(p, dec[:0]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	base, err := dcs.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := replay("dcs.update_ns", base.UpdateBatch); err != nil {
		return nil, err
	}
	tsk, err := tdcs.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := replay("tdcs.update_ns", tsk.UpdateBatch); err != nil {
		return nil, err
	}
	mon, err := monitor.New(monitorConfig, nil)
	if err != nil {
		return nil, err
	}
	if err := replay("monitor.update_ns", mon.UpdateBatch); err != nil {
		return nil, err
	}

	if err := pipelineLayers(l, in, cfg, keys, n); err != nil {
		return nil, err
	}
	if err := exportLayer(l, bs); err != nil {
		return nil, err
	}

	rec := tracelog.New(tracelog.Options{})
	ring := rec.Acquire(1)
	ns, err := timed(func() error {
		for i := uint64(0); i < records; i++ {
			ring.Record(tracelog.StageExportEnqueue, 1, i, batchSize, 0)
		}
		return nil
	})
	rec.Release(ring)
	l["tracelog.record_ns"] = ns / records
	return l, err
}

// pipelineLayers measures sharded ingest on a warm pipeline: staging
// through a Batcher (the producer's side, including any wait on a full
// shard queue), then one query's fold, tracking rebuild and top-k.
func pipelineLayers(l ladder, in *inputs, cfg dcs.Config, keys [][]dcs.KeyDelta, n float64) error {
	p, err := pipeline.New(cfg, runtime.GOMAXPROCS(0), shardQueue)
	if err != nil {
		return err
	}
	defer p.Close()
	b := p.NewBatcher()
	stageAll := func(k []dcs.KeyDelta) {
		for _, kd := range k {
			b.UpdateKey(kd.Key, kd.Delta)
		}
		b.Flush()
	}
	warm(in, stageAll)
	var stage, fold, rebuild, topk []float64
	for i := 0; i < ladderReps; i++ {
		t0 := time.Now()
		for _, k := range keys {
			stageAll(k)
		}
		t1 := time.Now()
		acc, err := p.FoldBase()
		if err != nil {
			return err
		}
		t2 := time.Now()
		snap := tdcs.FromBase(acc)
		t3 := time.Now()
		const queries = 100
		for q := 0; q < queries; q++ {
			sink += uint64(len(snap.TopK(topK)))
		}
		t4 := time.Now()
		stage = append(stage, float64(t1.Sub(t0).Nanoseconds())/n)
		fold = append(fold, float64(t2.Sub(t1).Nanoseconds())/1e6)
		rebuild = append(rebuild, float64(t3.Sub(t2).Nanoseconds())/1e6)
		topk = append(topk, float64(t4.Sub(t3).Nanoseconds())/1e3/queries)
	}
	l["pipeline.stage_ns"] = median(stage)
	l["pipeline.fold_ms"] = median(fold)
	l["tdcs.frombase_ms"] = median(rebuild)
	l["tdcs.topk_us"] = median(topk)
	return nil
}

var errNoNetwork = errors.New("ladder exporter has no network")

// exportLayer times export.Exporter.Export (encode and spool) on an
// exporter whose dials fail at once, so nothing but the call is timed.
func exportLayer(l ladder, bs []*batch) error {
	var ns, allocs []float64
	for i := 0; i < ladderReps; i++ {
		exp, err := export.New(export.Config{Addr: "ladder", SessionID: 7, Seed: 7,
			Dial: func(string, time.Duration) (net.Conn, error) { return nil, errNoNetwork }})
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for _, b := range bs {
			if err := exp.Export(b.ups); err != nil {
				exp.Close()
				return err
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		exp.Close()
		ns = append(ns, float64(d.Nanoseconds())/float64(len(bs)))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(len(bs)))
	}
	l["export.export_ns"] = median(ns)
	l["export.allocs_per_batch"] = median(allocs)
	return nil
}

// admitRTT is the p50, in ms, of one sequenced frame's round trip to the
// global collector at addr over a raw connection: hello, then each frame
// waits for its ack.
func admitRTT(addr string, payloads [][]byte) (float64, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	if err := wire.WriteFrame(conn, wire.MsgHello, wire.AppendHello(nil, 9)); err != nil {
		return 0, err
	}
	if t, _, err := wire.ReadFrame(r); err != nil || t != wire.MsgHelloAck {
		return 0, fmt.Errorf("ladder hello: reply %v, %v", t, err)
	}
	var frame []byte
	var rtts []float64
	for _, p := range payloads {
		if frame, err = wire.AppendFrame(frame[:0], wire.MsgSeqUpdates, p); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := conn.Write(frame); err != nil {
			return 0, err
		}
		t, _, err := wire.ReadFrame(r)
		if err != nil || t != wire.MsgSeqAck {
			return 0, fmt.Errorf("ladder frame: reply %v, %v", t, err)
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return percentile(rtts, 50), nil
}
