package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ServerConfig tunes the network front end.
type ServerConfig struct {
	// MaxInflight caps the number of pipelined requests a single
	// connection may have read but not yet answered (default 128): the
	// reader takes a slot before it runs a request and the writer frees it
	// once the response is encoded, so a slow or dead peer stops the
	// reader instead of buffering without bound.
	MaxInflight int
	// IdleTimeout closes a connection that sends nothing for this long
	// (default 5m): the read deadline is re-armed to now+IdleTimeout
	// before each read from the socket, not before each frame, so frames
	// already buffered are parsed without touching the clock. It doubles as
	// the shutdown poll interval bound: a draining server is never stuck
	// behind a silent peer.
	IdleTimeout time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 128
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	return c
}

// Server accepts connections and feeds their requests to an Engine.
type Server struct {
	cfg      ServerConfig
	eng      *Engine
	draining atomic.Bool

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}

	connWG        sync.WaitGroup
	accepted      atomic.Uint64
	protoDropped  atomic.Uint64
	protoRejected atomic.Uint64
	respWrites    atomic.Uint64 // socket writes made by connection writers
	respsWritten  atomic.Uint64 // response frames those writes carried
}

// NewServer wraps an engine. The caller retains ownership of the engine
// until Shutdown, which closes it after the last connection drains.
func NewServer(eng *Engine, cfg ServerConfig) *Server {
	return &Server{cfg: cfg.withDefaults(), eng: eng, conns: map[net.Conn]struct{}{}}
}

// Engine returns the engine behind the server (metrics, tests).
func (s *Server) Engine() *Engine { return s.eng }

// Accepted returns the number of connections accepted so far.
func (s *Server) Accepted() uint64 { return s.accepted.Load() }

// ProtoDropped returns the number of connections dropped for protocol
// violations the reader cannot recover from (bad frame length, a
// desynchronized or mid-frame-aborted stream).
func (s *Server) ProtoDropped() uint64 { return s.protoDropped.Load() }

// ProtoRejected returns the number of well-framed requests carrying an
// invalid op. Those frames are answered with StatusBadRequest and the
// connection stays alive — they are rejected frames, not dropped
// connections.
func (s *Server) ProtoRejected() uint64 { return s.protoRejected.Load() }

// ResponseWrites returns the number of socket writes the connection writers
// have made; each carries one batch of responses.
func (s *Server) ResponseWrites() uint64 { return s.respWrites.Load() }

// ResponsesWritten returns the number of response frames those writes
// carried, so ResponsesWritten/ResponseWrites is the mean batch size.
func (s *Server) ResponsesWritten() uint64 { return s.respsWritten.Load() }

// Serve runs the accept loop on ln until Shutdown. It returns nil on
// graceful shutdown and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		if s.draining.Load() {
			c.Close()
			continue
		}
		s.accepted.Add(1)
		s.track(c, true)
		s.connWG.Add(1)
		go s.handle(c)
	}
}

func (s *Server) track(c net.Conn, add bool) {
	s.mu.Lock()
	if add {
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
	s.mu.Unlock()
}

// Shutdown drains gracefully: stop accepting, kick every reader out of its
// blocking read, let in-flight requests complete and their responses
// flush, close the connections, then drain the engine. Every request whose
// frame was fully read before shutdown receives exactly one response.
func (s *Server) Shutdown() {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		// Wake blocked readers immediately. A reader between frames may
		// overwrite this deadline with its own idle deadline, but it checks
		// draining right after doing so (see handle): it either sees the
		// flag stored above or has its reset overwritten by this kick.
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.eng.Close()
}

// wireResp is one response ready to encode. legacy selects the 13-byte v1
// encoding: a response always answers in its request's framing dialect, so
// pre-range clients (which read with a hard 13-byte bound) never see the
// v2 header.
type wireResp struct {
	id     uint32
	legacy bool
	r      Response
}

// writeBatchBytes is the batching budget of both connection writers, the
// client's (requests) and the server's (responses): keep encoding queued
// frames until the buffer holds this much, then flush the run in one
// write. With variable-length responses a byte budget (not a frame count)
// is what actually bounds the write size — one full range response can
// exceed it alone, and then it simply flushes by itself.
//
// The server's writer is a goroutine per connection. The client's writer
// is whichever caller finds no write in progress (Client.flush); callers
// append their encoded requests to one queue, and the writer takes all of
// it, so on the client the budget only decides whether to yield.
//
// Both writers apply one coalescing rule: take the queued frames, and if
// other requests are still in flight on the connection and the budget has
// room, yield the P once (runtime.Gosched) and take the frames queued
// meanwhile before writing. "In flight" is, on the client, the reply slots
// in use beyond the requests in this batch and, on the server, requests
// read whose responses are not encoded yet. Without the yield, the
// write goes out before the other callers (or, on the server, the reader's
// next requests) have queued their frames, so most writes carried one or
// two: Go's runnext hand-off runs the server's parked writer as soon as the
// goroutine that woke it blocks, and the client's writer is a caller that
// is already running. The in-flight gate keeps a lone request on the
// immediate path: yielding with nothing else to write only wakes an idle P.
const writeBatchBytes = 16 * 1024

// writeBufCap is the retained capacity cap for a writer's encode buffer:
// a range-heavy burst may grow the server's to megabytes, and thousands of
// callers the client's; past this it is dropped after the write so one burst
// does not pin the peak for the connection's lifetime.
const writeBufCap = 64 * 1024

// writeTimeout bounds each response batch write.
const writeTimeout = 30 * time.Second

// handle runs one connection: a reader loop (this goroutine) that parses
// frames and runs each request itself through Engine.do, and a writer
// goroutine that encodes the responses in batches. The in-flight semaphore
// bounds the gap between them. The reader queues a response only after
// its request has run, so once it stops reading every response is queued.
func (s *Server) handle(c net.Conn) {
	defer s.connWG.Done()
	defer s.track(c, false)

	var (
		inflight   = make(chan struct{}, s.cfg.MaxInflight) // semaphore
		resps      = make(chan wireResp, s.cfg.MaxInflight)
		dead       atomic.Bool // writer hit a write error
		writerDone = make(chan struct{})
	)

	go func() { // writer
		defer close(writerDone)
		buf := make([]byte, 0, writeBatchBytes)
		n := uint64(0) // responses in buf
		flush := func() {
			c.SetWriteDeadline(time.Now().Add(writeTimeout))
			if !dead.Load() {
				if _, err := c.Write(buf); err != nil {
					// Keep draining so the reader's semaphore never
					// wedges on a dead peer.
					dead.Store(true)
					c.SetReadDeadline(time.Now())
				} else {
					s.respWrites.Add(1)
					s.respsWritten.Add(n)
				}
			}
			if cap(buf) > writeBufCap {
				buf = make([]byte, 0, writeBatchBytes)
			} else {
				buf = buf[:0]
			}
			n = 0
		}
		encode := func(wr wireResp) {
			if wr.legacy {
				buf = appendResponseV1(buf, wr.id, wr.r)
			} else {
				buf = appendResponse(buf, wr.id, wr.r)
			}
			n++
			<-inflight
		}
		// drain encodes the responses already queued, up to the budget; it
		// reports false once resps is closed and empty.
		drain := func() bool {
			for len(buf) < writeBatchBytes {
				select {
				case wr, ok := <-resps:
					if !ok {
						return false
					}
					encode(wr)
				default:
					return true
				}
			}
			return true
		}
		for wr := range resps {
			encode(wr)
			open := drain()
			// len(inflight): requests read whose responses are not
			// encoded yet (see writeBatchBytes for the rule).
			if open && len(buf) < writeBatchBytes && len(inflight) > 0 {
				runtime.Gosched()
				open = drain()
			}
			flush()
			if !open {
				return
			}
		}
	}()

	br := bufio.NewReader(c)
	frame := make([]byte, maxReqFrame)
	for {
		// Re-arm the idle deadline only before a read that can reach the
		// socket: a frame already whole in the buffer is parsed without a
		// clock read or a runtime timer update.
		if br.Buffered() < 4+maxReqFrame {
			c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		// Shutdown and a failed writer each store their flag before kicking
		// this read with an expired deadline, so a re-arm that lands after
		// the kick is caught here.
		if s.draining.Load() || dead.Load() {
			break
		}
		payload, err := readFrame(br, maxReqFrame, frame)
		if err != nil {
			var ne net.Error
			switch {
			case errors.As(err, &ne) && ne.Timeout():
				// Shutdown kick or idle timeout: stop reading new frames
				// either way; in-flight requests still complete below.
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
				// Clean close by the peer.
			default:
				s.protoDropped.Add(1) // malformed frame or mid-frame abort
			}
			break
		}
		id, req, legacy, perr := parseRequest(payload)
		if perr != nil {
			// An announced length that is neither request version means a
			// desynchronized stream; nothing after it can be trusted.
			s.protoDropped.Add(1)
			break
		}
		// Reserve a semaphore slot before executing: at most MaxInflight
		// responses can ever be queued, so a send on resps never blocks.
		inflight <- struct{}{}
		// A v1 frame only speaks the pre-range op set: its 13-byte response
		// cannot carry pairs, so a v1-framed RANGE is a bad request — the
		// same verdict the v1 server gave op 5.
		if !req.Op.valid() || (legacy && req.Op > OpDel) {
			resps <- wireResp{id: id, legacy: legacy, r: Response{Status: StatusBadRequest}}
			s.protoRejected.Add(1)
			continue
		}
		// The request runs here, on the reader, under tids borrowed from
		// its shards; do releases them before the send.
		r, err := s.eng.do(&req)
		if err != nil {
			// ErrShedding (unreclaimed backlog above the hard watermark) is
			// transient overload: the client sees StatusBusy and retries
			// with backoff.
			st := StatusBusy
			if errors.Is(err, ErrClosed) {
				st = StatusShutdown
			}
			r = Response{Status: st}
		}
		resps <- wireResp{id: id, legacy: legacy, r: r}
	}
	close(resps)
	<-writerDone // responses flushed (or the conn is dead)
	c.Close()
}
