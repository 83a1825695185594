package main

import (
	"fmt"

	"dcsketch/internal/hashing"
	"dcsketch/internal/stream"
	"dcsketch/internal/wire"
	"dcsketch/internal/workload"
)

// batchSize is the record count of every batch an edge exports.
const batchSize = 512

// Traffic shape shared by every workload. The flood is large enough that
// the victim leads global's top-k soon after onset, and it starts at a
// fixed share of the stream so the monitor has a baseline by then.
const (
	floodZombies   = 30000
	onsetShare     = 0.4
	bgSources      = 1 << 24
	bgDestinations = 16384
	zipfSkew       = 1.5
	zipfPairsPer   = 160 // distinct pairs per destination, the paper's U/d
)

// batch is one 512-record export unit. fp identifies it on the wire (see
// fingerprint), so an ack seen on any hop maps back to the batch and its
// edge.
type batch struct {
	edge int
	idx  int
	ups  []wire.Update
	fp   uint64
}

// inputs is everything a run offers, built from the seed before any part
// of the fleet exists.
type inputs struct {
	edges  [][]*batch
	byFP   map[uint64]*batch
	victim uint32
	// onset is the number of updates that precede the flood's first SYN in
	// the merged stream; onsetBatch is the batch, in its edge's order, that
	// holds that SYN.
	onset      int
	onsetEdge  int
	onsetBatch int
	updates    int
}

// generate builds the workload's stream of perEdge batches per edge.
// Traffic comes only from internal/stream and internal/workload; the seed
// drives every random choice.
func generate(w *workloadSpec, seed uint64, perEdge int) (*inputs, error) {
	n := perEdge * batchSize * w.edges
	victim := uint32(hashing.Mix64(seed ^ 0x71c7))
	flood, err := stream.SYNFlood{Victim: victim, Zombies: floodZombies, SYNsPerZombie: 1, Seed: seed ^ 0xf100d}.Updates()
	if err != nil {
		return nil, err
	}
	var base []stream.Update
	if w.zipf {
		pairs := int64(n - floodZombies)
		wl, err := workload.Generate(workload.Config{
			DistinctPairs: pairs, Destinations: int(pairs / zipfPairsPer), Skew: zipfSkew, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		base = append([]stream.Update(nil), wl.Updates()...)
		stream.Shuffle(seed, base)
	} else {
		// About 95% of handshakes complete, so a connection yields 1.95
		// updates; ask for a few more than needed and trim the tail.
		base, err = stream.Background{
			Connections: (n-floodZombies)*100/190 + 1, Sources: bgSources,
			Destinations: bgDestinations, Seed: seed,
		}.Updates()
		if err != nil {
			return nil, err
		}
	}
	onset := int(float64(n) * onsetShare)
	if onset > len(base) {
		return nil, fmt.Errorf("inputs: base stream of %d updates is shorter than the onset %d", len(base), onset)
	}
	merged := append(base[:onset:onset], stream.Interleave(seed^0x1e, base[onset:], flood)...)
	if len(merged) < n {
		return nil, fmt.Errorf("inputs: stream has %d updates, want %d", len(merged), n)
	}
	merged = merged[:n]

	// Split by pair, so every pair's +1 and -1 reach global through one
	// edge in order, as they would from one router.
	in := &inputs{victim: victim, onset: onset, byFP: make(map[uint64]*batch), edges: make([][]*batch, w.edges)}
	per := make([][]wire.Update, w.edges)
	for i, u := range merged {
		e := 0
		if w.edges > 1 {
			e = int(hashing.Mix64(u.Key()) % uint64(w.edges))
		}
		if i == onset {
			in.onsetEdge, in.onsetBatch = e, len(per[e])/batchSize
		}
		per[e] = append(per[e], wire.Update{Src: u.Src, Dst: u.Dst, Delta: int64(u.Delta)})
	}
	var enc []byte
	for e, ups := range per {
		for i := 0; i+batchSize <= len(ups); i += batchSize {
			b := &batch{edge: e, idx: len(in.edges[e]), ups: ups[i : i+batchSize : i+batchSize]}
			enc = wire.AppendUpdates(enc[:0], b.ups)
			b.fp = fingerprint(enc)
			if _, dup := in.byFP[b.fp]; dup {
				return nil, fmt.Errorf("inputs: batches %d/%d share a fingerprint; pick another seed", e, b.idx)
			}
			in.byFP[b.fp] = b
			in.edges[e] = append(in.edges[e], b)
			in.updates += batchSize
		}
	}
	return in, nil
}

// fpPrefix is how many bytes of a batch's MsgUpdates encoding the
// fingerprint covers: the count and the first few records, which already
// differ between any two batches of a run.
const fpPrefix = 64

// fingerprint identifies a batch by its MsgUpdates encoding, which every
// hop re-sends byte for byte after its own sequence number: the edge's
// frame to the relay and the relay's frame to global carry the same bytes.
func fingerprint(updatesEnc []byte) uint64 {
	if len(updatesEnc) > fpPrefix {
		updatesEnc = updatesEnc[:fpPrefix]
	}
	h := uint64(14695981039346656037) // FNV-1a
	for _, c := range updatesEnc {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}
