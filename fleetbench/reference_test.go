package main

import (
	"math"
	"strings"
	"testing"

	"dcsketch/internal/dcs"
	"dcsketch/internal/wire"
)

func TestGateAcceptsTheReferenceAndRejectsCorruption(t *testing.T) {
	in, err := generate(workloads[0], 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	order := in.edges[0]
	offered := make([][]int, len(in.edges))
	for e, edge := range in.edges {
		offered[e] = make([]int, len(edge))
		for i := range edge {
			offered[e][i] = 1 + i%3
		}
	}
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	wireTopK := func() []wire.TopKEntry {
		var out []wire.TopKEntry
		for _, e := range ref.sk.TopK(topK) {
			out = append(out, wire.TopKEntry{Dest: e.Dest, F: e.F})
		}
		return out
	}
	for _, b := range order {
		ref.add(b, 1)
	}
	mid := wireTopK()
	// The final answer comes from replaying batches one at a time, so the
	// gate's multiplied deltas are checked against real replays.
	for _, b := range order {
		for i := 1; i < offered[0][b.idx]; i++ {
			ref.add(b, 1)
		}
	}
	final := wireTopK()
	if len(mid) != topK {
		t.Fatalf("reference returned %d entries", len(mid))
	}
	rec, n, err := gate(in, order, offered, mid, final)
	if err != nil {
		t.Fatalf("gate rejected correct answers: %v", err)
	}
	if n == 0 || rec <= 0 || rec > 1 {
		t.Errorf("recall %g over %d checkpoints", rec, n)
	}

	corrupt := func(xs []wire.TopKEntry, f func([]wire.TopKEntry)) []wire.TopKEntry {
		c := append([]wire.TopKEntry(nil), xs...)
		f(c)
		return c
	}
	for name, c := range map[string]struct{ mid, final []wire.TopKEntry }{
		"estimate off by one": {mid, corrupt(final, func(x []wire.TopKEntry) { x[0].F++ })},
		"wrong destination":   {corrupt(mid, func(x []wire.TopKEntry) { x[topK-1].Dest ^= 1 }), final},
		"entries swapped":     {mid, corrupt(final, func(x []wire.TopKEntry) { x[0], x[1] = x[1], x[0] })},
		"entry missing":       {mid, final[:topK-1]},
		"final is the mid":    {mid, mid},
	} {
		if _, _, err := gate(in, order, offered, c.mid, c.final); err == nil || !strings.Contains(err.Error(), "top-k") {
			t.Errorf("%s: gate accepted a corrupted top-k (err %v)", name, err)
		}
	}
}

func TestRecallCountsOnlyDestinationsAboveTheFloor(t *testing.T) {
	freq := map[uint32]int64{1: 500, 2: 400, 3: 300, 4: 300, 5: 10, 6: 9}
	got := func(ds ...uint32) []dcs.Estimate {
		var out []dcs.Estimate
		for _, d := range ds {
			out = append(out, dcs.Estimate{Dest: d})
		}
		return out
	}
	for _, c := range []struct {
		k     int
		floor int64
		got   []dcs.Estimate
		want  float64
	}{
		{3, 64, got(1, 2, 4), 1},       // 4 ties with 3 at the 3rd frequency
		{3, 64, got(1, 5, 6), 1.0 / 3}, // below-floor entries are misses
		{10, 64, got(1, 2, 3, 4), 1},   // only four destinations qualify
		{10, 64, got(4, 5), 0.25},
		{10, 1, got(1, 2, 3, 4, 5), 5.0 / 6},
	} {
		if r := recallOf(freq, c.got, c.k, c.floor); math.Abs(r-c.want) > 1e-9 {
			t.Errorf("recallOf(k=%d, floor=%d, %v) = %g, want %g", c.k, c.floor, c.got, r, c.want)
		}
	}
	if !math.IsNaN(recallOf(freq, nil, 10, 1000)) {
		t.Error("recall with no qualifying destination is not NaN")
	}
}
