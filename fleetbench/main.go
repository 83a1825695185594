// Command fleetbench is the repository's end-to-end benchmark. It brings up
// the collector fleet in-process on loopback TCP (exporters, an optional
// relay, the global collector), drives one workload through the public
// constructors and the wire protocol, checks global's answers against a
// single-box reference, and prints every metric by name and unit. The last
// line of standard output is one JSON object for tooling.
//
//	fleetbench --workload edge-direct --seed 1 --seconds 24 --trace 0
//
// With --trace 1 it prints the per-layer metrics instead: the same run
// untraced, the open-loop phase again with spans recorded, and the layer
// ladder. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"
)

// setupReps is how many cold bring-ups setup_s takes the median of.
const setupReps = 61

// metric is one named measurement with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

func main() {
	name := flag.String("workload", "", "workload name (edge-direct, relay-fanin, query-sharded)")
	seed := flag.Uint64("seed", 1, "seed of the generated traffic")
	seconds := flag.Int("seconds", 24, "measured seconds: two thirds open loop, the rest closed loop")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	var spec *workloadSpec
	for _, w := range workloads {
		if w.name == *name {
			spec = w
		}
	}
	if spec == nil || *seconds < 3 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "fleetbench: want --workload one of edge-direct|relay-fanin|query-sharded, --seconds >= 3, --trace 0|1\n")
		os.Exit(2)
	}
	if err := run(spec, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
}

func run(spec *workloadSpec, seed uint64, seconds time.Duration, traced bool) error {
	fmt.Printf("workload %s seed %d: %s\n", spec.name, seed, spec.why)
	fmt.Printf("GOMAXPROCS %d, NumCPU %d, %d edge(s) at %d updates/s open loop, closed-loop window %d batches/edge\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), spec.edges, edgeRate, window)
	// The open loop gets two thirds: the gated metrics come from it.
	open, closed := seconds*2/3, seconds-seconds*2/3
	perEdge := int(open.Seconds() * edgeRate / batchSize)
	in, err := generate(spec, seed, perEdge)
	if err != nil {
		return err
	}

	memBase := liveHeap()
	setup, err := setupTimes(spec, in)
	if err != nil {
		return err
	}
	res, err := newFleetRun(spec, in, nil).run(false, closed, liveHeap)
	if err != nil {
		return err
	}
	rec, recN, err := check(in, res)
	if err != nil {
		return err
	}
	det := detection(spec, in, res)
	fmt.Printf("failure share: %d failed of %d attempted operations (batches offered + queries)\n", res.failed, res.attempted)
	fmt.Printf("detection: %s\n", det.summary)

	// Printed on every run but not gated: on the 2-vCPU VM this benchmark
	// was built on, single-thread speed drifts by up to 2x over seconds, and
	// these spread past any bound the gate allows (README.md). The traced
	// run carries the ones the JSON needs among its per-layer metrics.
	reported := []metric{
		{"ingest_mups", res.ingestMups, "Mups", int(res.capUpdates)},
		{"cpu_ns_per_update", res.cpuNsPerUpdate, "ns", int(res.capUpdates)},
		{"query_p50_ms", percentile(res.queryRTT, 50), "ms", len(res.queryRTT)},
		{"detect_lag_updates", det.lagUpdates, "updates", det.n},
		{"false_alerts", float64(det.falseAlerts), "count", 1},
		{"detect_ms", det.ms, "ms", det.n},
		tail("fresh", res.fresh), tail("query", res.queryRTT), tail("gen.late", res.late),
	}
	metrics := []metric{
		{"fresh_p50_ms", percentile(res.fresh, 50), "ms", len(res.fresh)},
		{"topk_recall", rec, "share", recN},
		{"mem_live_mb", (res.memLiveBytes - memBase) / (1 << 20), "MB", 1},
		{"setup_s", median(setup), "s", len(setup)},
	}
	printMetrics("gated", metrics)
	printMetrics("reported", reported)
	if traced {
		if metrics, err = traceRun(spec, in, res, det); err != nil {
			return err
		}
		printMetrics("per-layer", metrics)
	}
	return printJSON(res, metrics)
}

func printMetrics(group string, ms []metric) {
	fmt.Printf("-- %s\n", group)
	for _, m := range ms {
		fmt.Printf("%-30s %14.4f %-7s n=%d\n", m.name, m.value, m.unit, m.n)
	}
}

// tail is the highest percentile the samples support, named for it.
func tail(prefix string, samples []float64) metric {
	p := highestSupported(len(samples))
	if p == 0 {
		return metric{prefix + "_tail_ms", math.NaN(), "ms", len(samples)}
	}
	return metric{fmt.Sprintf("%s_p%g_ms", prefix, p), percentile(samples, p), "ms", len(samples)}
}

// check is the correctness gate: every offered update applied at global
// exactly once, and global's top-k equal to the single-box reference. It
// returns topk_recall and the checkpoints behind it (see gate).
func check(in *inputs, res *result) (float64, int, error) {
	if res.appliedAtGlobal != res.offeredUpdates {
		return 0, 0, fmt.Errorf("correctness gate: global applied %d updates, edges offered %d",
			res.appliedAtGlobal, res.offeredUpdates)
	}
	rec, n, err := gate(in, ackOrder(in, res.st), res.offered, res.midTopK, res.topK)
	if err != nil {
		return 0, 0, fmt.Errorf("correctness gate: %w", err)
	}
	return rec, n, nil
}

// detectionResult summarises the alerts global raised in the open-loop
// phase against the flood's onset.
type detectionResult struct {
	lagUpdates  float64
	falseAlerts int
	missed      int
	ms          float64
	n           int
	summary     string
}

func detection(spec *workloadSpec, in *inputs, res *result) detectionResult {
	d := detectionResult{ms: math.NaN()}
	for i, a := range res.alerts {
		if a.AtUpdate > uint64(res.fixedUpdates) {
			break // the closed loop replays the stream; count only the first pass
		}
		if a.Dest != in.victim {
			d.falseAlerts++
			continue
		}
		if d.n == 0 {
			d.n = 1
			d.lagUpdates = float64(a.AtUpdate) - float64(in.onset)
			d.ms = float64(res.alertNs[i]-res.onsetDue) / 1e6
		}
	}
	if d.n == 1 {
		d.summary = fmt.Sprintf("victim alerted %.0f updates after onset, %.1f ms after the onset batch was due; %d false alerts",
			d.lagUpdates, d.ms, d.falseAlerts)
		return d
	}
	// A miss is reported as the lag it is at least: every update global
	// applied after onset.
	d.missed = 1
	d.lagUpdates = float64(res.fixedUpdates - in.onset)
	d.summary = fmt.Sprintf("MISSED: the victim was never alerted (%d false alerts)", d.falseAlerts)
	if spec.sharded {
		d.summary += "; sharded ingest runs no per-update checks, the documented IngestShards trade-off"
	}
	return d
}

// setupTimes brings the workload's fleet up setupReps times, each timed from
// the first constructor call to global's first ack.
func setupTimes(spec *workloadSpec, in *inputs) ([]float64, error) {
	var out []float64
	for i := 0; i < setupReps; i++ {
		d, err := setupOnce(spec, in)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

func setupOnce(spec *workloadSpec, in *inputs) (time.Duration, error) {
	base := time.Now()
	acked := make(chan struct{})
	var once sync.Once
	onAck := func(*batch, int64) { once.Do(func() { close(acked) }) }
	lookup := func(fp uint64) *batch { return in.byFP[fp] }
	cfg := fleetConfig{spec: spec}
	if spec.relay {
		cfg.upstreamDial = newStamper(base, lookup, nil, onAck).dial
	} else {
		cfg.edgeDial = func() dialFunc { return newStamper(base, lookup, nil, onAck).dial }
	}
	t0 := time.Now()
	f, err := startFleet(cfg)
	if err != nil {
		return 0, err
	}
	defer f.stop()
	for e, exp := range f.edges {
		if err := exp.Export(in.edges[e][0].ups); err != nil {
			return 0, err
		}
	}
	select {
	case <-acked:
		return time.Since(t0), nil
	case <-time.After(10 * time.Second):
		return 0, fmt.Errorf("no ack from global within 10s")
	}
}

// liveHeap is the heap still reachable after forced collections; the second
// one also empties the sync.Pool victim caches.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(res *result, metrics []metric) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s has no value", m.name)
		}
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
