package main

import (
	"fmt"
	"math"
	"sort"

	"dcsketch/internal/dcs"
	"dcsketch/internal/hashing"
	"dcsketch/internal/monitor"
	"dcsketch/internal/tdcs"
	"dcsketch/internal/wire"
)

// recallEvery is how many batches apart the reference replay checks recall.
const recallEvery = 16

// reference is the single-box answer the fleet must reproduce: one tdcs
// sketch, built with global's own sketch config, fed every batch the edges
// offered.
type reference struct {
	sk   *tdcs.Sketch
	keys []dcs.KeyDelta
	// net and freq are the exact truth: each pair's net count, and each
	// destination's number of pairs with a positive one.
	net  map[uint64]int64
	freq map[uint32]int64
}

func newReference() (*reference, error) {
	// The monitor resolves the defaults global runs with.
	mon, err := monitor.New(monitorConfig, nil)
	if err != nil {
		return nil, err
	}
	sk, err := tdcs.New(mon.Config().Sketch)
	if err != nil {
		return nil, err
	}
	return &reference{sk: sk, net: make(map[uint64]int64), freq: make(map[uint32]int64)}, nil
}

// add applies batch b times times to the sketch and the truth. The sketch
// is linear, so one update of delta×times equals times replays of the batch.
func (r *reference) add(b *batch, times int) {
	if times == 0 {
		return
	}
	r.keys = r.keys[:0]
	for _, u := range b.ups {
		k := hashing.PairKey(u.Src, u.Dst)
		d := u.Delta * int64(times)
		r.keys = append(r.keys, dcs.KeyDelta{Key: k, Delta: d})
		old := r.net[k]
		r.net[k] = old + d
		switch {
		case old <= 0 && old+d > 0:
			r.freq[u.Dst]++
		case old > 0 && old+d <= 0:
			r.freq[u.Dst]--
		}
	}
	r.sk.UpdateBatch(r.keys)
}

// ackOrder lists the open loop's batches in the order global acked them,
// which is the order it applied them: each tier's exporter has one batch
// in flight.
func ackOrder(in *inputs, st []stamps) []*batch {
	var order []*batch
	for _, edge := range in.edges {
		order = append(order, edge...)
	}
	ack := func(b *batch) int64 { return st[b.edge].globalAck[b.idx] }
	sort.SliceStable(order, func(i, j int) bool { return ack(order[i]) < ack(order[j]) })
	return order
}

// gate replays the run into the reference and compares the fleet's answers
// with it: mid after the open loop (every batch offered once, in order),
// final after the closed loop (each batch offered as often as offered
// says). On the way it measures topk_recall: the mean, over checkpoints
// every recallEvery batches of the open loop, of the share of the true
// top-k that the sketch's top-k finds. The replay is the state global held
// at each checkpoint, since global equals the reference wherever the gate
// compares them; checkpoints where no destination clears the alert floor
// yet are skipped. It returns the recall and the checkpoints it averaged.
func gate(in *inputs, order []*batch, offered [][]int, mid, final []wire.TopKEntry) (float64, int, error) {
	ref, err := newReference()
	if err != nil {
		return 0, 0, err
	}
	var sum float64
	n := 0
	for i, b := range order {
		ref.add(b, 1)
		if (i+1)%recallEvery != 0 && i+1 != len(order) {
			continue
		}
		if r := recallOf(ref.freq, ref.sk.TopK(topK), topK, monitorConfig.MinFrequency); !math.IsNaN(r) {
			sum += r
			n++
		}
	}
	if err := sameTopK("after the open-loop phase", mid, ref.sk.TopK(topK)); err != nil {
		return 0, 0, err
	}
	for e, edge := range in.edges {
		for _, b := range edge {
			ref.add(b, offered[e][b.idx]-1)
		}
	}
	if err := sameTopK("at the end of the run", final, ref.sk.TopK(topK)); err != nil {
		return 0, 0, err
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("no destination ever reached the alert floor of %d", monitorConfig.MinFrequency)
	}
	return sum / float64(n), n, nil
}

// sameTopK requires the wire answer to equal the reference entry by entry.
func sameTopK(when string, got []wire.TopKEntry, want []dcs.Estimate) error {
	if len(got) != len(want) {
		return fmt.Errorf("top-k %s: global returned %d entries, reference %d", when, len(got), len(want))
	}
	for i := range got {
		if got[i].Dest != want[i].Dest || got[i].F != want[i].F {
			return fmt.Errorf("top-k %s: entry %d is %d:%d at global, %d:%d in the reference",
				when, i, got[i].Dest, got[i].F, want[i].Dest, want[i].F)
		}
	}
	return nil
}

// recallOf is the share of the true top-k of freq found in got. Only
// destinations at or above the monitor's alert floor count as true top-k
// members: one below it can never raise an alert, so missing it costs
// detection nothing. Destinations tied with the true k-th frequency all
// count, so an arbitrary tie-break cannot cost recall either. It is NaN
// when no destination clears the floor.
func recallOf(freq map[uint32]int64, got []dcs.Estimate, k int, floor int64) float64 {
	var vals []int64
	for _, f := range freq {
		if f >= floor {
			vals = append(vals, f)
		}
	}
	if k > len(vals) {
		k = len(vals)
	}
	if k == 0 {
		return math.NaN()
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] > vals[b] })
	kth := vals[k-1]
	hits := 0
	for _, e := range got {
		if hits < k && freq[e.Dest] >= kth {
			hits++
		}
	}
	return float64(hits) / float64(k)
}
