package main

import "fmt"

// spansPath is where a traced run writes its spans, relative to the
// checkout's root.
const spansPath = ".bench_build/fleetbench/spans.jsonl"

// traceRun adds to the untraced run a second open-loop pass with spans
// recorded, and the layer ladder, and returns the per-layer metrics.
func traceRun(spec *workloadSpec, in *inputs, plain *result, det detectionResult) ([]metric, error) {
	spans := &spanLog{}
	tr, err := newFleetRun(spec, in, spans).run(true, 0, nil)
	if err != nil {
		return nil, err
	}
	if _, _, err := check(in, tr); err != nil {
		return nil, err
	}
	lad, err := runLadder(in)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	if err := spans.write(spansPath); err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}
	if spec.relay {
		hop := spans.hops()
		fmt.Printf("relay.hop_p50_ms under load %.4f ms n=%d\n", percentile(hop, 50), len(hop))
	}

	// The blocking path's layer costs, per update applied at global in the
	// closed loop, where cpu_ns_per_update is measured.
	perBatch := 1.0 / batchSize
	queries := float64(plain.capQueries) / float64(plain.capUpdates)
	records := float64(plain.records) / float64(plain.fixedUpdates)
	edgeHop := lad["export.export_ns"]*perBatch + lad["wire.decode_ns"] + lad["hashing.pairkey_ns"]
	var sum float64
	switch {
	case spec.sharded:
		sum = edgeHop + lad["pipeline.stage_ns"] + lad["dcs.update_ns"] +
			queries*((lad["pipeline.fold_ms"]+lad["tdcs.frombase_ms"])*1e6+lad["tdcs.topk_us"]*1e3)
	case spec.relay:
		sum = 2*(edgeHop+lad["monitor.update_ns"]) + queries*lad["tdcs.topk_us"]*1e3
	default:
		sum = edgeHop + lad["monitor.update_ns"] + queries*lad["tdcs.topk_us"]*1e3
	}
	sum += records * lad["tracelog.record_ns"]

	c := plain.counts
	rtt := spans.durations("ack.edge")
	return []metric{
		{"ingest_mups", plain.ingestMups, "Mups", int(plain.capUpdates)},
		{"cpu_ns_per_update", plain.cpuNsPerUpdate, "ns", int(plain.capUpdates)},
		{"hashing.pairkey_ns", lad["hashing.pairkey_ns"], "ns", ladderReps},
		{"wire.encode_ns", lad["wire.encode_ns"], "ns", ladderReps},
		{"wire.decode_ns", lad["wire.decode_ns"], "ns", ladderReps},
		{"wire.bytes_per_update", lad["wire.bytes_per_update"], "B", ladderBatches},
		{"dcs.update_ns", lad["dcs.update_ns"], "ns", ladderReps},
		{"tdcs.update_ns", lad["tdcs.update_ns"], "ns", ladderReps},
		{"monitor.update_ns", lad["monitor.update_ns"], "ns", ladderReps},
		{"pipeline.stage_ns", lad["pipeline.stage_ns"], "ns", ladderReps},
		{"pipeline.fold_ms", lad["pipeline.fold_ms"], "ms", ladderReps},
		{"tdcs.frombase_ms", lad["tdcs.frombase_ms"], "ms", ladderReps},
		{"tdcs.topk_us", lad["tdcs.topk_us"], "us", ladderReps},
		{"export.export_ns", lad["export.export_ns"], "ns", ladderReps},
		{"export.allocs_per_batch", lad["export.allocs_per_batch"], "count", ladderReps},
		{"query_p50_ms", percentile(plain.queryRTT, 50), "ms", len(plain.queryRTT)},
		{"export.rtt_p50_ms", percentile(rtt, 50), "ms", len(rtt)},
		{"server.admit_rtt_p50_ms", tr.admitMs, "ms", len(ladderPayloads(in))},
		{"tracelog.record_ns", lad["tracelog.record_ns"], "ns", ladderReps},
		{"tracelog.records_per_update", records, "count", plain.fixedUpdates},
		{"snapshot.capture_ms", tr.snapshotMs, "ms", 1},
		{"relay.spool_depth_max", float64(plain.spoolMax), "count", 1},
		{"gen.late_p99_ms", percentile(plain.late, 99), "ms", len(plain.late)},
		{"fresh_p99_ms", percentile(plain.fresh, 99), "ms", len(plain.fresh)},
		{"export.retransmits", float64(c.exportRetransmits), "count", 1},
		{"export.dropped_batches", float64(c.exportDropped), "count", 1},
		{"relay.shed_batches", float64(c.relayShed), "count", 1},
		{"server.dup_batches", float64(c.dupBatches), "count", 1},
		{"server.protocol_errors", float64(c.protocolErrors), "count", 1},
		{"pipeline.shed_batches", float64(c.pipelineShed), "count", 1},
		{"monitor.checks", float64(c.monitorChecks), "count", 1},
		{"monitor.detect_lag_updates", det.lagUpdates, "updates", 1},
		{"monitor.false_alerts", float64(det.falseAlerts), "count", 1},
		{"monitor.missed_detections", float64(det.missed), "count", 1},
		{"ladder.sum_ns_per_update", sum, "ns", 1},
		{"ladder.residual_ns_per_update", plain.cpuNsPerUpdate - sum, "ns", 1},
		// Both passes run the same open loop; only the second records spans.
		{"trace.overhead_pct", (tr.cpuOpenNsPerUpdate - plain.cpuOpenNsPerUpdate) / plain.cpuOpenNsPerUpdate * 100, "%", 2},
	}, nil
}
