package main

import (
	"io"
	"net"
	"testing"
	"time"

	"dcsketch/internal/wire"
)

func testBatches(n int) []*batch {
	var bs []*batch
	for i := 0; i < n; i++ {
		b := &batch{idx: i}
		for j := 0; j < 8; j++ {
			b.ups = append(b.ups, wire.Update{Src: uint32(100*i + j), Dst: uint32(i + 1), Delta: 1})
		}
		b.fp = fingerprint(wire.AppendUpdates(nil, b.ups))
		bs = append(bs, b)
	}
	return bs
}

func frame(t *testing.T, typ wire.MsgType, payload []byte) []byte {
	t.Helper()
	f, err := wire.AppendFrame(nil, typ, payload)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFrameScannerSplitAcrossFeeds(t *testing.T) {
	var stream []byte
	for seq := uint64(1); seq <= 3; seq++ {
		stream = append(stream, frame(t, wire.MsgSeqAck, wire.AppendSeqAck(nil, seq))...)
	}
	stream = append(stream, frame(t, wire.MsgAck, nil)...)
	for _, chunk := range []int{1, 2, 3, 7, len(stream)} {
		var types []wire.MsgType
		var seqs []uint64
		s := frameScanner{keep: 10, onFrame: func(typ wire.MsgType, p []byte) {
			types = append(types, typ)
			if typ == wire.MsgSeqAck {
				seq, err := wire.DecodeSeqAck(p)
				if err != nil {
					t.Errorf("chunk %d: %v", chunk, err)
				}
				seqs = append(seqs, seq)
			}
		}}
		for i := 0; i < len(stream); i += chunk {
			s.feed(stream[i:min(i+chunk, len(stream))])
		}
		if len(types) != 4 || types[3] != wire.MsgAck || len(seqs) != 3 || seqs[0] != 1 || seqs[2] != 3 {
			t.Errorf("chunk %d: frames %v, seqs %v", chunk, types, seqs)
		}
	}
}

// TestStamperMapsAcksToBatches sends update frames through the stamped side
// in 5-byte writes, then answers with every ack in one write, read back
// first through a 1-byte buffer (frames split across reads) and then
// through a large one (several acks in one read).
func TestStamperMapsAcksToBatches(t *testing.T) {
	for _, readBuf := range []int{1, 4096} {
		bs := testBatches(3)
		byFP := map[uint64]*batch{}
		for _, b := range bs {
			byFP[b.fp] = b
		}
		var sent, acked []*batch
		s := newStamper(time.Now(), func(fp uint64) *batch { return byFP[fp] },
			func(b *batch, ns int64) { sent = append(sent, b) },
			func(b *batch, ns int64) {
				if ns <= 0 {
					t.Errorf("ack stamped at %d ns", ns)
				}
				acked = append(acked, b)
			})
		local, peer := net.Pipe()
		conn := s.wrap(local)

		var out, acks []byte
		for i, b := range bs {
			seq := uint64(i + 10)
			out = append(out, frame(t, wire.MsgSeqUpdates, wire.AppendSeqUpdates(nil, seq, b.ups))...)
			acks = append(acks, frame(t, wire.MsgSeqAck, wire.AppendSeqAck(nil, seq))...)
		}
		done := make(chan error, 1)
		go func() {
			if _, err := io.ReadFull(peer, make([]byte, len(out))); err != nil {
				done <- err
				return
			}
			_, err := peer.Write(acks)
			done <- err
		}()
		for i := 0; i < len(out); i += 5 {
			if _, err := conn.Write(out[i:min(i+5, len(out))]); err != nil {
				t.Fatal(err)
			}
		}
		buf, reads := make([]byte, readBuf), 0
		for got := 0; got < len(acks); reads++ {
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
		if readBuf > len(acks) && reads != 1 {
			t.Fatalf("acks arrived in %d reads, want all in one", reads)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		conn.Close()
		peer.Close()
		if len(sent) != 3 || len(acked) != 3 {
			t.Fatalf("read buffer %d: %d sends and %d acks stamped, want 3 and 3", readBuf, len(sent), len(acked))
		}
		for i := range bs {
			if sent[i] != bs[i] || acked[i] != bs[i] {
				t.Errorf("read buffer %d: stamp %d maps to batch %d/%d, want %d", readBuf, i, sent[i].idx, acked[i].idx, i)
			}
		}
	}
}
