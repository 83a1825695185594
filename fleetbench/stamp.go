package main

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"dcsketch/internal/wire"
)

// frameScanner follows the wire framing (u32 LE length | u8 type | payload)
// across arbitrarily split reads or writes and hands each completed frame's
// type and first bytes of payload to onFrame. It keeps at most keep payload
// bytes, so scanning a 7 KiB update frame copies only its prefix.
type frameScanner struct {
	keep    int
	onFrame func(t wire.MsgType, prefix []byte)

	hdr    [5]byte
	hdrN   int
	left   int // payload bytes still to consume in the current frame
	prefix []byte
}

func (s *frameScanner) feed(p []byte) {
	for len(p) > 0 {
		if s.hdrN < len(s.hdr) {
			n := copy(s.hdr[s.hdrN:], p)
			s.hdrN += n
			p = p[n:]
			if s.hdrN < len(s.hdr) {
				return
			}
			s.left = int(binary.LittleEndian.Uint32(s.hdr[:4]))
			s.prefix = s.prefix[:0]
		}
		n := s.left
		if n > len(p) {
			n = len(p)
		}
		if room := s.keep - len(s.prefix); room > 0 {
			s.prefix = append(s.prefix, p[:min(n, room)]...)
		}
		s.left -= n
		p = p[n:]
		if s.left == 0 {
			s.hdrN = 0
			s.onFrame(wire.MsgType(s.hdr[4]), s.prefix)
		}
	}
}

// stamper watches one exporter session through the dial seam: outbound
// MsgSeqUpdates frames bind the session's sequence numbers to batches (by
// fingerprint), and inbound MsgSeqAck frames report each batch's ack time.
// A stamper outlives reconnects; every dialled connection gets fresh
// scanners.
type stamper struct {
	base   time.Time
	lookup func(fp uint64) *batch
	onSend func(b *batch, ns int64)
	onAck  func(b *batch, ns int64)

	mu    sync.Mutex
	bySeq map[uint64]*batch // guarded by mu
}

func newStamper(base time.Time, lookup func(uint64) *batch, onSend, onAck func(*batch, int64)) *stamper {
	return &stamper{base: base, lookup: lookup, onSend: onSend, onAck: onAck, bySeq: make(map[uint64]*batch)}
}

// dial is the export.Config.Dial / relay.Config.UpstreamDial seam.
func (s *stamper) dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return s.wrap(c), nil
}

func (s *stamper) wrap(c net.Conn) net.Conn {
	sc := &stampConn{Conn: c}
	sc.out = frameScanner{keep: binary.MaxVarintLen64 + fpPrefix, onFrame: func(t wire.MsgType, p []byte) {
		if t == wire.MsgSeqUpdates {
			s.sent(p, sc.wrote)
		}
	}}
	sc.in = frameScanner{keep: binary.MaxVarintLen64, onFrame: func(t wire.MsgType, p []byte) {
		if t == wire.MsgSeqAck {
			if seq, err := wire.DecodeSeqAck(p); err == nil {
				s.acked(seq, sc.read)
			}
		}
	}}
	return sc
}

func (s *stamper) sent(prefix []byte, at time.Time) {
	seq, n := binary.Uvarint(prefix)
	if n <= 0 {
		return
	}
	b := s.lookup(fingerprint(prefix[n:]))
	if b == nil {
		return
	}
	s.mu.Lock()
	s.bySeq[seq] = b
	s.mu.Unlock()
	if s.onSend != nil {
		s.onSend(b, at.Sub(s.base).Nanoseconds())
	}
}

func (s *stamper) acked(seq uint64, at time.Time) {
	s.mu.Lock()
	b := s.bySeq[seq]
	delete(s.bySeq, seq)
	s.mu.Unlock()
	if b != nil && s.onAck != nil {
		s.onAck(b, at.Sub(s.base).Nanoseconds())
	}
}

// stampConn feeds every byte written and read through the scanners, with
// the time the Write was called or the Read returned.
type stampConn struct {
	net.Conn
	out, in frameScanner
	// wrote and read are the latest Write call and Read return; the
	// exporter may write and read from different goroutines.
	wrote, read time.Time
}

func (c *stampConn) Write(p []byte) (int, error) {
	c.wrote = time.Now()
	n, err := c.Conn.Write(p)
	c.out.feed(p[:n])
	return n, err
}

func (c *stampConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read = time.Now()
	c.in.feed(p[:n])
	return n, err
}
