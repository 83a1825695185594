package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dcsketch/internal/monitor"
	"dcsketch/internal/server"
	"dcsketch/internal/wire"
)

// workloadSpec is one fleet topology plus its traffic.
type workloadSpec struct {
	name    string
	why     string
	edges   int
	relay   bool
	sharded bool
	zipf    bool
}

var workloads = []*workloadSpec{
	{name: "edge-direct", edges: 1,
		why: "one exporter into the default inline global: the only topology where detection repeats as a count"},
	{name: "relay-fanin", edges: 2, relay: true,
		why: "two exporters into a relay into global: each batch is decoded, applied and re-encoded twice"},
	{name: "query-sharded", edges: 1, sharded: true, zipf: true,
		why: "sharded global ingest with top-k queries every 20 ms: reads that fold the shards share the server with writes"},
}

const (
	// edgeRate is each edge's open-loop offer, in updates per second.
	edgeRate = 250000
	// batchEvery is the open-loop spacing of one edge's batches.
	batchEvery = time.Second * batchSize / edgeRate
	// queryEvery spaces the top-k queries of the query connection.
	queryEvery = 20 * time.Millisecond
	// window bounds each edge's batches in flight in the closed loop,
	// counted until global acks them. Two keep the stop-and-wait exporter
	// busy; the rest absorb a relay hop. Far below the 1,024-batch spool.
	window = 4
	// topK is the k of every top-k query and of the correctness gate.
	topK  = 10
	slice = 500 * time.Millisecond
)

// stamps is the per-batch timeline of one phase, in ns since the run's
// base time; 0 means "not seen".
type stamps struct {
	due, called, sent, globalAck []int64
}

func newStamps(n int) stamps {
	return stamps{due: make([]int64, n), called: make([]int64, n), sent: make([]int64, n),
		globalAck: make([]int64, n)}
}

// fleetRun drives one fleet through the open-loop phase and, when capDur
// is positive, the closed-loop capacity phase.
type fleetRun struct {
	spec  *workloadSpec
	in    *inputs
	base  time.Time
	spans *spanLog // nil unless tracing

	mu         sync.Mutex
	st         []stamps // per edge, fixed phase; guarded by mu
	capacity   bool     // guarded by mu
	capEnd     int64    // guarded by mu; 0 while the phase runs
	capAcked   int64    // updates acked at global inside the phase; guarded by mu
	capUpdates int64    // capAcked once the phase is over
	capQueries int64    // queries answered during the phase; guarded by mu
	inflight   []chan struct{}
	offered    [][]int // per edge, times each batch was exported
	alerts     []monitor.Alert
	alertNs    []int64
	queryRTT   []float64 // ms, open-loop phase only
	queries    atomic.Int64
	queryErrs  atomic.Int64
	spoolMax   atomic.Int64
	fixedDone  chan struct{}
	remaining  atomic.Int64 // fixed-phase batches not yet acked at global
}

// result is what one fleetRun measured.
type result struct {
	cpuNsPerUpdate     float64 // closed loop
	cpuOpenNsPerUpdate float64
	fresh              []float64 // ms, due time → global ack
	late               []float64 // ms, due time → Export call
	queryRTT           []float64
	ingestMups         float64
	midTopK, topK      []wire.TopKEntry
	alerts             []monitor.Alert
	alertNs            []int64
	counts             fleetCounts
	records            uint64 // flight-recorder events over the fixed phase
	spoolMax           int64
	offered            [][]int
	attempted          int64
	failed             int64
	memLiveBytes       float64
	snapshotMs         float64
	admitMs            float64 // raw hello+seq frame → ack on the warm global
	offeredUpdates     uint64
	appliedAtGlobal    uint64
	fixedUpdates       int
	onsetDue           int64
	capUpdates         int64
	capQueries         int64
	st                 []stamps
}

func newFleetRun(spec *workloadSpec, in *inputs, spans *spanLog) *fleetRun {
	r := &fleetRun{spec: spec, in: in, spans: spans, fixedDone: make(chan struct{})}
	for e := range in.edges {
		r.st = append(r.st, newStamps(len(in.edges[e])))
		r.inflight = append(r.inflight, make(chan struct{}, window))
		r.offered = append(r.offered, make([]int, len(in.edges[e])))
		r.remaining.Add(int64(len(in.edges[e])))
	}
	return r
}

// globalAcked runs on the goroutine that read global's ack for b.
func (r *fleetRun) globalAcked(b *batch, ns int64) {
	r.mu.Lock()
	if !r.capacity {
		st := r.st[b.edge]
		first := st.globalAck[b.idx] == 0
		st.globalAck[b.idx] = ns
		sent := st.sent[b.idx]
		r.mu.Unlock()
		if first && r.remaining.Add(-1) == 0 {
			close(r.fixedDone)
		}
		r.spans.add("ack.global", b, sent, ns)
		return
	}
	if r.capEnd == 0 || ns <= r.capEnd {
		r.capAcked += int64(len(b.ups))
	}
	r.mu.Unlock()
	<-r.inflight[b.edge]
}

func (r *fleetRun) edgeSent(b *batch, ns int64) {
	r.mu.Lock()
	if !r.capacity && r.st[b.edge].sent[b.idx] == 0 {
		r.st[b.edge].sent[b.idx] = ns
	}
	r.mu.Unlock()
}

func (r *fleetRun) edgeAcked(b *batch, ns int64) {
	r.mu.Lock()
	var sent int64
	if !r.capacity {
		sent = r.st[b.edge].sent[b.idx]
	}
	r.mu.Unlock()
	if sent != 0 {
		r.spans.add("ack.edge", b, sent, ns)
	}
}

func (r *fleetRun) since() int64 { return time.Since(r.base).Nanoseconds() }

// run brings the fleet up, drives it, checks nothing (the caller gates the
// result) and always stops it.
func (r *fleetRun) run(fixedOnly bool, capDur time.Duration, measureMem func() float64) (*result, error) {
	r.base = time.Now()
	lookup := func(fp uint64) *batch { return r.in.byFP[fp] }
	cfg := fleetConfig{spec: r.spec, onAlert: func(a monitor.Alert) {
		r.mu.Lock()
		r.alerts = append(r.alerts, a)
		r.alertNs = append(r.alertNs, r.since())
		r.mu.Unlock()
	}}
	if r.spec.relay {
		cfg.edgeDial = func() dialFunc { return newStamper(r.base, lookup, r.edgeSent, r.edgeAcked).dial }
		cfg.upstreamDial = newStamper(r.base, lookup, nil, r.globalAcked).dial
	} else {
		cfg.edgeDial = func() dialFunc {
			return newStamper(r.base, lookup, r.edgeSent, func(b *batch, ns int64) {
				r.edgeAcked(b, ns)
				r.globalAcked(b, ns)
			}).dial
		}
	}
	f, err := startFleet(cfg)
	if err != nil {
		return nil, err
	}
	defer f.stop()

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		r.queryLoop(f.globalAddr, stop)
	}()
	if f.relay != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			r.sampleSpool(f, stop)
		}()
	}
	stopped := false
	stopBackground := func() {
		if !stopped {
			stopped = true
			close(stop)
			bg.Wait()
		}
	}
	defer stopBackground()

	res := &result{}
	recBefore := f.records()
	cpu0 := cpuTime()
	if err := r.openLoop(f); err != nil {
		return nil, err
	}
	select {
	case <-r.fixedDone:
	case <-time.After(60 * time.Second):
		return nil, errors.New("open-loop phase: global did not ack every batch within 60s")
	}
	res.cpuOpenNsPerUpdate = float64(cpuTime()-cpu0) / float64(r.in.updates)
	res.records = f.records() - recBefore
	res.fixedUpdates = r.in.updates
	if res.midTopK, err = queryOnce(f.globalAddr); err != nil {
		return nil, fmt.Errorf("top-k after the open-loop phase: %w", err)
	}
	if !fixedOnly {
		if res.ingestMups, res.cpuNsPerUpdate, err = r.closedLoop(f, capDur); err != nil {
			return nil, err
		}
	}
	// A query in flight would hold a fold of the shards: stop the query
	// loop before the memory reading.
	stopBackground()
	if res.topK, err = queryOnce(f.globalAddr); err != nil {
		return nil, fmt.Errorf("final top-k: %w", err)
	}
	if measureMem != nil {
		res.memLiveBytes = measureMem()
	}
	if r.spans != nil {
		t0 := time.Now()
		if _, err := f.global.SnapshotState(); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		res.snapshotMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	res.counts = f.counts()
	r.collect(res)
	if r.spans != nil {
		// After the ledgers are read, so the gate never counts these frames.
		if res.admitMs, err = admitRTT(f.globalAddr, ladderPayloads(r.in)); err != nil {
			return nil, fmt.Errorf("admission round trip: %w", err)
		}
	}
	return res, nil
}

// openLoop exports every batch at its due time, one goroutine per edge,
// whatever the fleet's pace: a stall delays later acks, never later sends.
func (r *fleetRun) openLoop(f *fleet) error {
	t0 := r.since() + int64(time.Millisecond)
	errs := make(chan error, len(f.edges))
	for e, exp := range f.edges {
		go func(e int) {
			// time.Sleep wakes on the runtime's timer tick, up to a
			// millisecond late; a nanosleep on a thread of its own keeps
			// the generator's lateness out of the fleet's freshness.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			st := r.st[e]
			for i, b := range r.in.edges[e] {
				due := t0 + int64(i)*int64(batchEvery)
				if d := due - r.since(); d > 0 {
					ts := syscall.NsecToTimespec(d)
					_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only makes this batch early
				}
				called := r.since()
				err := exp.Export(b.ups)
				end := r.since()
				if err != nil {
					errs <- fmt.Errorf("edge %d export: %w", e, err)
					return
				}
				r.mu.Lock()
				st.due[i], st.called[i] = due, called
				r.mu.Unlock()
				r.offered[e][i]++
				r.spans.add("export", b, called, end)
			}
			errs <- nil
		}(e)
	}
	var first error
	for range f.edges {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// closedLoop keeps window batches per edge in flight until global acks
// them, replaying the pool in order, and returns global's ingest rate in
// millions of updates per second over the phase.
func (r *fleetRun) closedLoop(f *fleet, d time.Duration) (float64, float64, error) {
	cpu0 := cpuTime()
	start := r.since()
	r.mu.Lock()
	r.capacity = true
	r.mu.Unlock()
	stop := make(chan struct{})
	errs := make(chan error, len(f.edges))
	for e, exp := range f.edges {
		go func(e int) {
			pool := r.in.edges[e]
			for i := 0; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				case r.inflight[e] <- struct{}{}:
				}
				b := pool[i%len(pool)]
				if err := exp.Export(b.ups); err != nil {
					errs <- fmt.Errorf("edge %d export: %w", e, err)
					return
				}
				r.offered[e][b.idx]++
			}
		}(e)
	}
	time.Sleep(d)
	end := r.since()
	cpu := cpuTime() - cpu0
	r.mu.Lock()
	r.capEnd = end
	r.mu.Unlock()
	close(stop)
	var first error
	for range f.edges {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	// Wait for the batches still in flight, so the gate sees every one.
	deadline := time.Now().Add(30 * time.Second)
	for e := range f.edges {
		for len(r.inflight[e]) > 0 {
			if time.Now().After(deadline) {
				return 0, 0, errors.New("closed-loop phase: batches still unacked at global after 30s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	r.mu.Lock()
	acked := r.capAcked
	r.mu.Unlock()
	r.capUpdates = acked
	return float64(acked) / (float64(end-start) / 1e9) / 1e6, float64(cpu) / float64(acked), first
}

// queryOnce fetches global's top-k over a connection of its own.
func queryOnce(addr string) ([]wire.TopKEntry, error) {
	c, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.TopK(topK)
}

// queryLoop sends a top-k query every queryEvery on its own connection.
func (r *fleetRun) queryLoop(addr string, stop <-chan struct{}) {
	c, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		r.queries.Add(1)
		r.queryErrs.Add(1)
		return
	}
	defer c.Close()
	tick := time.NewTicker(queryEvery)
	defer tick.Stop()
	for n := uint64(1); ; n++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		start := r.since()
		_, err := c.TopK(topK)
		end := r.since()
		r.queries.Add(1)
		if err != nil {
			r.queryErrs.Add(1)
			continue
		}
		r.mu.Lock()
		if !r.capacity {
			r.queryRTT = append(r.queryRTT, float64(end-start)/1e6)
		} else {
			r.capQueries++
		}
		r.mu.Unlock()
		r.spans.addQuery(n, start, end)
	}
}

func (r *fleetRun) sampleSpool(f *fleet, stop <-chan struct{}) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if d := int64(f.relay.Stats().Export.SpoolDepth); d > r.spoolMax.Load() {
			r.spoolMax.Store(d)
		}
	}
}

// collect turns the stamps into samples and the ledgers into the failure
// share.
func (r *fleetRun) collect(res *result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.st {
		for i := range st.due {
			res.fresh = append(res.fresh, float64(st.globalAck[i]-st.due[i])/1e6)
			res.late = append(res.late, float64(st.called[i]-st.due[i])/1e6)
		}
	}
	res.queryRTT = r.queryRTT
	res.st = r.st
	res.capUpdates = r.capUpdates
	res.capQueries = r.capQueries
	res.onsetDue = r.st[r.in.onsetEdge].due[r.in.onsetBatch]
	res.alerts, res.alertNs = r.alerts, r.alertNs
	res.spoolMax = r.spoolMax.Load()
	res.offered = r.offered
	var batches int64
	for _, counts := range r.offered {
		for _, c := range counts {
			batches += int64(c)
			res.offeredUpdates += uint64(c * batchSize)
		}
	}
	res.appliedAtGlobal = res.counts.globalUpdates
	res.attempted = batches + r.queries.Load()
	c := res.counts
	res.failed = int64(c.exportDropped+c.relayShed+c.pipelineShed+c.protocolErrors) + r.queryErrs.Load()
}

// cpuTime is the process's user+system CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
