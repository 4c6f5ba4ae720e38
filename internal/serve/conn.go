package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
)

// Network front of the Server: an accept loop, one reader goroutine per
// connection (the connection's main loop), and one writer goroutine
// flushing encoded frames. Done callbacks fire on pump goroutines and
// must never block, so outgoing frames are appended under a mutex into
// a pending byte buffer the writer swaps out and flushes — its size is
// bounded by the client's in-flight window plus the tenant queue bound,
// never by a slow socket.

// netState is the Server's network-side state, separate from the core
// so the lockstep driver carries none of it.
type netState struct {
	mu    sync.Mutex
	ln    net.Listener
	conns map[*conn]struct{}
	wg    sync.WaitGroup
}

// Serve accepts connections on ln until Shutdown closes it (returning
// nil) or Accept fails (returning the error). It starts the pump
// goroutines itself; callers typically run it via `go`.
func (s *Server) Serve(ln net.Listener) error {
	s.Start()
	s.net.mu.Lock()
	if s.net.conns == nil {
		s.net.conns = make(map[*conn]struct{})
	}
	s.net.ln = ln
	s.net.mu.Unlock()
	// Shutdown may have run before the listener was registered (it then
	// found no listener to close): the draining flag is already set, so
	// close it here — whoever observes both the listener and the flag
	// shuts the accept loop down.
	if s.draining.Load() {
		ln.Close()
		return nil
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		c := &conn{s: s, c: nc, br: bufio.NewReaderSize(nc, 64<<10)}
		c.cond = sync.NewCond(&c.mu)
		s.net.mu.Lock()
		if s.net.conns == nil || s.draining.Load() {
			s.net.mu.Unlock()
			nc.Close()
			continue
		}
		s.net.conns[c] = struct{}{}
		s.net.wg.Add(2)
		s.net.mu.Unlock()
		s.connections.Add(1)
		go c.writeLoop()
		go c.readLoop()
	}
}

// ListenAndServe listens on addr and serves. The returned listener is
// already bound when Serve starts, so callers needing the bound address
// (port 0) should listen themselves and call Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown drains the whole frontend gracefully: stop accepting, warn
// every client with a Drain frame, drain the server core (every
// accepted batch acked or rejected — see Drain), then flush and close
// the connections. Safe to call without Serve (it just drains the
// core) and idempotent.
func (s *Server) Shutdown() {
	s.draining.Store(true)
	s.net.mu.Lock()
	ln := s.net.ln
	s.net.ln = nil
	conns := make([]*conn, 0, len(s.net.conns))
	for c := range s.net.conns {
		conns = append(conns, c)
	}
	s.net.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.send(AppendDrain(nil))
	}
	s.Drain()
	for _, c := range conns {
		c.finish()
	}
	s.net.wg.Wait()
}

// conn is one client connection. Its steady-state data plane allocates
// nothing per batch beyond the done callback's closure: frames are read
// into one reused buffer, batches decode into recycled record slices,
// and acks are appended in place into a double-buffered output.
//
// Per-connection memory stays bounded. The frame buffer grows to the
// largest frame read, at most MaxFrameSize bytes. A record slice is
// queued (admission control caps the tenant's queue at the queue
// bound), in the pump's current coalesced pass (at most CoalesceRecords
// or one batch), the one the reader decodes into, or on the free list,
// whose total capacity is capped at the queue bound.
type conn struct {
	s  *Server
	c  net.Conn
	br *bufio.Reader

	// Reader-owned buffers: frame is the reused frame body, recs the
	// record slice the next batch decodes into.
	frame []byte
	recs  []Record

	mu   sync.Mutex
	cond *sync.Cond
	// out holds the encoded frames pending for the writer. The writer
	// swaps it with the buffer it flushed last, so senders append into
	// one buffer while the other is on the wire.
	out []byte
	// free is the record-slice free list: a batch's records come back
	// here once its done callback has fired (the server reads them only
	// until then). freeRecs is the list's total capacity in records,
	// capped at the server's queue bound.
	free     [][]Record
	freeRecs int
	// closed stops new frames from being enqueued; the writer exits
	// once the pending bytes are flushed, closing the socket.
	closed bool
	// dead marks a failed write: pending and future frames are dropped
	// (the peer is gone; its batches still drain through the pumps).
	dead bool
	// outstanding counts accepted batches whose done callback has not
	// fired yet — the Bye handshake waits for it to reach zero so every
	// ack is on the wire before the stream closes.
	outstanding int
	tenant      int
	// decodeNs is the last frame's decode duration, measured by the
	// readLoop (only the reader touches it) and handed to SubmitTimed
	// for latency attribution.
	decodeNs int64
}

// send enqueues one encoded control frame for the writer. Never blocks.
func (c *conn) send(frame []byte) {
	c.mu.Lock()
	if c.closed || c.dead {
		c.mu.Unlock()
		return
	}
	c.out = append(c.out, frame...)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// finish stops the connection's writer after it flushes the pending
// bytes; the socket close then unblocks the reader. Idempotent.
func (c *conn) finish() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// writeLoop flushes pending frames until finish() and an empty buffer.
func (c *conn) writeLoop() {
	defer c.s.net.wg.Done()
	defer c.c.Close()
	var buf []byte
	for {
		c.mu.Lock()
		for len(c.out) == 0 && !c.closed {
			c.cond.Wait()
		}
		buf, c.out = c.out, buf[:0]
		closed := c.closed
		c.mu.Unlock()
		if len(buf) > 0 {
			if _, err := c.c.Write(buf); err != nil {
				c.mu.Lock()
				c.dead = true
				c.out = nil
				c.cond.Broadcast()
				c.mu.Unlock()
				return
			}
		}
		if closed {
			c.mu.Lock()
			done := len(c.out) == 0
			c.mu.Unlock()
			if done {
				return
			}
		}
	}
}

// readLoop is the connection's main loop: handshake, then batches
// until Bye, EOF, or garbage.
func (c *conn) readLoop() {
	defer c.s.net.wg.Done()
	defer func() {
		c.finish()
		c.s.net.mu.Lock()
		delete(c.s.net.conns, c)
		c.s.net.mu.Unlock()
		c.s.connections.Add(-1)
	}()
	if !c.handshake() {
		return
	}
	for {
		// Read and decode separately so the decode stage is timed on
		// its own: the blocking read is network idle, not decode cost.
		body, err := ReadFrame(c.br, c.frame)
		var f Frame
		if err == nil {
			c.frame = body
			t0 := c.s.clock()
			f, err = DecodeFrame(body, c.recs)
			c.decodeNs = c.s.clock() - t0
		}
		if err != nil {
			if errors.Is(err, ErrMalformed) || errors.Is(err, ErrFrameTooLarge) {
				c.s.decodeErrs.Inc()
				c.send(AppendReject(nil, 0, CodeMalformed, err.Error()))
			}
			return
		}
		if ctr := c.s.frames[f.Type]; ctr != nil {
			ctr.Inc()
		}
		switch f.Type {
		case FrameBatch:
			c.submit(f.Seq, f.Records)
		case FrameBye:
			// Let every accepted batch resolve so its ack or reject is
			// enqueued (and flushed by the writer) before we answer.
			c.mu.Lock()
			for c.outstanding > 0 && !c.dead {
				c.cond.Wait()
			}
			c.mu.Unlock()
			c.send(AppendBye(nil))
			return
		default:
			c.s.decodeErrs.Inc()
			c.send(AppendReject(nil, 0, CodeMalformed,
				fmt.Sprintf("unexpected frame type 0x%02x", f.Type)))
			return
		}
	}
}

// handshake runs the Hello exchange, fixing the connection's tenant.
func (c *conn) handshake() bool {
	f, err := ReadDecode(c.br)
	if err != nil || f.Type != FrameHello {
		if err == nil || errors.Is(err, ErrMalformed) || errors.Is(err, ErrFrameTooLarge) {
			c.s.decodeErrs.Inc()
			c.send(AppendHelloAck(nil, CodeMalformed, "expected hello"))
		}
		return false
	}
	if ctr := c.s.frames[FrameHello]; ctr != nil {
		ctr.Inc()
	}
	if f.Version != ProtoVersion {
		c.send(AppendHelloAck(nil, CodeMalformed,
			fmt.Sprintf("protocol version %d, want %d", f.Version, ProtoVersion)))
		return false
	}
	if c.s.draining.Load() {
		c.send(AppendHelloAck(nil, CodeDraining, "server draining"))
		return false
	}
	slot := int(f.Tenant)
	if slot < 0 || slot >= len(c.s.queues) {
		c.s.countReject(CodeBadTenant)
		c.send(AppendHelloAck(nil, CodeBadTenant,
			fmt.Sprintf("tenant %d of %d", f.Tenant, len(c.s.queues))))
		return false
	}
	if err := c.s.backend.Check(slot); err != nil {
		c.s.countReject(CodeFromError(err))
		c.send(AppendHelloAck(nil, CodeFromError(err), err.Error()))
		return false
	}
	c.tenant = slot
	c.send(AppendHelloAck(nil, CodeOK, ""))
	return true
}

// submit hands one decoded batch to the server core and arranges the
// ack or reject on the way back. The reader takes its next decode
// slice off the free list, since recs now belongs to the server until
// the batch resolves.
func (c *conn) submit(seq uint64, recs []Record) {
	c.mu.Lock()
	c.outstanding++
	c.recs = nil
	if n := len(c.free); n > 0 {
		c.recs = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		c.freeRecs -= cap(c.recs)
	}
	c.mu.Unlock()
	err := c.s.SubmitTimed(c.tenant, seq, recs, c.decodeNs, func(res Result) {
		c.resolve(seq, recs, res)
	})
	if err != nil {
		c.resolve(seq, recs, Result{Err: err})
	}
}

// resolve appends a batch's ack (or, with res.Err set, its reject) to
// the pending output, retires the batch from the outstanding count and
// returns its records to the free list.
func (c *conn) resolve(seq uint64, recs []Record, res Result) {
	c.mu.Lock()
	if !c.closed && !c.dead {
		if res.Err != nil {
			c.out = AppendReject(c.out, seq, CodeFromError(res.Err), res.Err.Error())
		} else {
			c.out = AppendAck(c.out, seq, res.Count, res.QueueNs)
		}
	}
	c.outstanding--
	if cap(recs) > 0 && c.freeRecs+cap(recs) <= c.s.queueCap {
		c.free = append(c.free, recs[:0])
		c.freeRecs += cap(recs)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}
