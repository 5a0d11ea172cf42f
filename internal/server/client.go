package server

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Client is a pipelined connection to an ibrd server. It is safe for
// concurrent use: many goroutines may call DoContext on one Client, the
// callers themselves put their requests on the wire, and ids match
// responses back to callers — so N concurrent callers give a natural
// pipeline depth of N without any per-request connection state. The only
// goroutine a Client runs is its response reader.
//
// Requests share a write when they are queued together: a caller that
// finds no write in progress becomes the writer and writes every request
// queued so far (see writeBatchBytes for when it yields first); a caller
// that finds a write in progress leaves its request for that writer. A
// lone caller never waits: it writes its own request at once.
//
// Every blocking call takes a context. Cancellation abandons the CALL, not
// the connection: a request already queued or on the wire still gets its
// response, which is discarded on arrival (its reply slot stays reserved
// until then), and the client stays usable.
type Client struct {
	conn  net.Conn
	retry *RetryPolicy // WithRetry: DoContext retries StatusBusy under it

	mu      sync.Mutex // guards everything below
	queue   []byte     // encoded requests no write has taken yet
	queued  int        // requests in queue
	spare   []byte     // the buffer of the last write, reused as the next queue
	writing bool       // a caller is writing; it takes queue before it stops
	slots   []slot     // reply slots, indexed by the low slotBits of an id
	free    []uint32   // indices of free slots, most recently freed last
	inUse   int        // slots not free: the calls in flight, abandoned ones included
	err     error      // first fatal error; set once, fails all later calls

	retries atomic.Uint64 // busy re-submissions made under a retry policy
}

// A request id is gen<<slotBits | slot: the low 24 bits index the reply
// slot table, the high 8 are the slot's generation. A slot is reused only
// after the response to its previous id arrived (or the connection
// failed), so no two calls in flight ever share an id; the generation,
// bumped on every reuse, additionally makes a response the server sends
// twice for one id unknown to the slot's next occupant.
const (
	slotBits = 24
	maxSlots = 1 << slotBits
	maxGen   = 1<<(32-slotBits) - 1
)

// slotState is where a reply slot is in its cycle: free → waiting → answered
// → free when its caller takes the response, or free → waiting → abandoned
// → free when the response of a call its caller gave up on arrives.
type slotState uint8

const (
	slotFree      slotState = iota
	slotWaiting             // a caller waits on ch for the response
	slotAnswered            // a result is in ch, or about to be; the caller frees the slot
	slotAbandoned           // the caller left; the late response frees the slot
)

// slot is one reusable reply slot. ch holds at most one result, and is
// empty whenever the slot is free.
type slot struct {
	ch    chan result
	gen   uint32
	state slotState
}

type result struct {
	resp Response
	err  error
}

// ClientOption configures a Client at Dial time.
type ClientOption func(*Client)

// WithRetry makes every DoContext (and the ops built on it) transparently
// retry StatusBusy responses — the server's backpressure signal for a
// shedding shard or an exhausted node pool — under p with
// jittered exponential backoff, until the context ends or attempts run
// out. On exhaustion the call returns the last busy Response and an error
// wrapping ErrBusy, so callers distinguish "the server kept refusing"
// (errors.Is ErrBusy) from a broken connection. Other statuses and
// transport errors return immediately, unretried. The zero RetryPolicy
// selects the defaults.
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) {
		pol := p.withDefaults()
		c.retry = &pol
	}
}

// RetryPolicy shapes a retrying client's handling of StatusBusy responses
// (see WithRetry). Delays grow exponentially from BaseDelay, are capped at
// MaxDelay, and carry ±50% jitter so a fleet of clients backing off from
// the same overloaded shard does not resynchronize into waves. The zero
// value selects the defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first included (default 4).
	MaxAttempts int
	// BaseDelay is the pre-jitter delay after the first busy response
	// (default 1ms); attempt n waits about BaseDelay<<n.
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter delay (default 100ms).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	return p
}

// backoffDelay is attempt n's (0-based) sleep: exponential growth capped at
// MaxDelay, then jittered to a uniform value in [exp/2, exp). rng may be
// nil (the global source); tests pass a seeded one for determinism.
func backoffDelay(p RetryPolicy, attempt int, rng *rand.Rand) time.Duration {
	exp := p.BaseDelay
	for i := 0; i < attempt && exp < p.MaxDelay; i++ {
		exp *= 2
	}
	if exp > p.MaxDelay {
		exp = p.MaxDelay
	}
	half := exp / 2
	if half <= 0 {
		return exp
	}
	var j int64
	if rng != nil {
		j = rng.Int63n(int64(half))
	} else {
		j = rand.Int63n(int64(half))
	}
	return half + time.Duration(j)
}

// Dial connects to an ibrd server.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn, opts...), nil
}

// newClient runs the client protocol over an established connection.
func newClient(conn net.Conn, opts ...ClientOption) *Client {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cl := &Client{conn: conn}
	for _, o := range opts {
		o(cl)
	}
	go cl.readLoop()
	return cl
}

// claim reserves a reply slot for a new call and returns its index and the
// call's request id, growing the table when no slot is free. c.mu is held.
func (c *Client) claim() (uint32, uint32, error) {
	var i uint32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		if len(c.slots) == maxSlots {
			return 0, 0, fmt.Errorf("server: %d calls already in flight on one client", maxSlots)
		}
		i = uint32(len(c.slots))
		c.slots = append(c.slots, slot{ch: make(chan result, 1)})
	}
	s := &c.slots[i]
	s.state = slotWaiting
	c.inUse++
	return i, s.gen<<slotBits | i, nil
}

// release frees slot i for the next call under its next generation. Its
// channel must be empty. c.mu is held.
func (c *Client) release(i uint32) {
	s := &c.slots[i]
	s.state = slotFree
	s.gen = (s.gen + 1) & maxGen
	c.free = append(c.free, i)
	c.inUse--
}

// flush is run by the caller that queued a request and found no write in
// progress: it writes the queue, its own request included, and keeps
// writing what other callers queue meanwhile until the queue is empty, so
// one syscall covers every request queued during the previous write. Before
// a batch that leaves other calls in flight it yields once (see
// writeBatchBytes): the other callers woken by the same burst of responses
// queue their requests before the write instead of after it.
func (c *Client) flush() {
	c.mu.Lock()
	for {
		if c.err == nil && len(c.queue) > 0 && len(c.queue) < writeBatchBytes && c.inUse > c.queued {
			c.mu.Unlock()
			runtime.Gosched()
			c.mu.Lock()
		}
		if c.err != nil || len(c.queue) == 0 {
			c.writing = false
			c.mu.Unlock()
			return
		}
		buf := c.queue
		c.queue, c.spare, c.queued = c.spare[:0], nil, 0
		c.mu.Unlock()
		_, err := c.conn.Write(buf)
		if err != nil {
			c.fail(fmt.Errorf("server: write: %w", err))
		}
		c.mu.Lock()
		if cap(buf) <= writeBufCap { // drop a burst's outsized buffer
			c.spare = buf[:0]
		}
	}
}

// readLoop dispatches responses to waiting callers by id. On any transport
// or protocol error it fails every pending and future call. The response to
// an abandoned call (its context ended after its request was queued) frees
// the call's slot without being delivered, so a slot, and with it an id, is
// reused only after its response arrived.
func (c *Client) readLoop() {
	br := bufio.NewReader(c.conn)
	frame := make([]byte, 0, respHeaderLen)
	for {
		payload, err := readFrame(br, maxRespFrame, frame)
		if err != nil {
			c.fail(fmt.Errorf("server: connection lost: %w", err))
			return
		}
		frame = payload[:0]
		id, resp, perr := parseResponse(payload)
		if perr != nil {
			c.fail(fmt.Errorf("server: connection lost: %w", perr))
			return
		}
		c.mu.Lock()
		if c.err != nil { // fail() has answered every caller already
			c.mu.Unlock()
			return
		}
		i := id & (maxSlots - 1)
		if int(i) >= len(c.slots) || c.slots[i].gen != id>>slotBits ||
			(c.slots[i].state != slotWaiting && c.slots[i].state != slotAbandoned) {
			c.mu.Unlock()
			c.fail(fmt.Errorf("server: response for unknown request id %d", id))
			return
		}
		s := &c.slots[i]
		if s.state == slotAbandoned {
			c.release(i)
			c.mu.Unlock()
			continue
		}
		s.state = slotAnswered
		ch := s.ch
		c.mu.Unlock()
		ch <- result{resp: resp}
	}
}

// fail marks the client broken and answers every waiting caller exactly
// once: a waiting slot becomes answered the moment its result is sent, so
// neither readLoop nor a later fail() sends to it again.
func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	for i := range c.slots {
		switch s := &c.slots[i]; s.state {
		case slotWaiting:
			s.state = slotAnswered
			s.ch <- result{err: c.err} // never blocks: a waiting slot's ch is empty
		case slotAbandoned:
			c.release(uint32(i)) // its late response will not arrive now
		}
	}
}

// DoContext issues one typed operation and blocks for its response or the
// context's end, whichever comes first. A non-nil error is either the
// context's (the call was abandoned; the connection is fine and the client
// remains usable), a transport error (the connection is broken and every
// future call fails the same way), or — on a WithRetry client — an
// ErrBusy-wrapping exhaustion error. Protocol outcomes like StatusNotFound
// or StatusUnsupported are returned in the Response, not as errors. A zero
// req.TraceID is filled from ctx (see WithTraceID).
//
// A call whose caller became the writer (see Client) writes the other
// callers' queued requests too and finishes that write even if ctx ends
// meanwhile, so it returns when its write ends: a context bounds the wait
// for a response, not a write to a peer that stopped reading.
func (c *Client) DoContext(ctx context.Context, req Request) (Response, error) {
	if req.TraceID == 0 {
		req.TraceID = TraceIDFrom(ctx)
	}
	if c.retry == nil {
		return c.doOnce(ctx, req)
	}
	return c.doRetry(ctx, req, *c.retry)
}

// doOnce issues req exactly once.
func (c *Client) doOnce(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Response{}, err
	}
	i, id, err := c.claim()
	if err != nil {
		c.mu.Unlock()
		return Response{}, err
	}
	ch := c.slots[i].ch
	c.queue = appendRequest(c.queue, id, req)
	c.queued++
	write := !c.writing
	c.writing = true
	c.mu.Unlock()
	if write {
		c.flush()
	}

	var r result
	// A context that can never end (Background, TODO and their value
	// children) has a nil Done: receive directly rather than pay for a
	// select on every call.
	if done := ctx.Done(); done == nil {
		r = <-ch
	} else {
		select {
		case r = <-ch:
		case <-done:
			// The request is queued or on the wire and its response WILL
			// arrive carrying this id, so the slot must stay reserved
			// until then: readLoop frees it on arrival. If readLoop (or
			// fail) has answered already, the result is in ch or about to
			// be; take it, so the slot is freed with an empty channel and
			// the call reports its outcome.
			c.mu.Lock()
			if c.slots[i].state == slotWaiting {
				c.slots[i].state = slotAbandoned
				c.mu.Unlock()
				return Response{}, ctx.Err()
			}
			c.mu.Unlock()
			r = <-ch
		}
	}
	c.mu.Lock()
	c.release(i)
	c.mu.Unlock()
	return r.resp, r.err
}

// doRetry issues req, retrying StatusBusy under p (see WithRetry).
func (c *Client) doRetry(ctx context.Context, req Request, p RetryPolicy) (Response, error) {
	var resp Response
	for attempt := 0; ; attempt++ {
		var err error
		resp, err = c.doOnce(ctx, req)
		if err != nil {
			return resp, err
		}
		if resp.Status != StatusBusy {
			return resp, nil
		}
		if attempt == p.MaxAttempts-1 {
			return resp, fmt.Errorf("server: %d attempts exhausted: %w", p.MaxAttempts, ErrBusy)
		}
		t := time.NewTimer(backoffDelay(p, attempt, nil))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return resp, ctx.Err()
		}
		c.retries.Add(1)
	}
}

// Get looks key up.
func (c *Client) Get(ctx context.Context, key uint64) (Response, error) {
	return c.DoContext(ctx, Request{Op: OpGet, Key: key})
}

// Put inserts key→val if absent. ttl, when positive, arms the server-side
// expiry: the key is removed — through the reclamation scheme's normal
// retire path — once it lapses. Pass 0 for no expiry.
func (c *Client) Put(ctx context.Context, key, val uint64, ttl time.Duration) (Response, error) {
	return c.DoContext(ctx, Request{Op: OpPut, Key: key, Val: val, TTL: ttl})
}

// Del removes key.
func (c *Client) Del(ctx context.Context, key uint64) (Response, error) {
	return c.DoContext(ctx, Request{Op: OpDel, Key: key})
}

// Range scans [from, hi] ascending, returning at most limit pairs (0 =
// the server's default cap). The scan executes inside one reservation
// interval per shard — it is the paper's long-running read, issued over
// the wire.
func (c *Client) Range(ctx context.Context, from, hi uint64, limit uint32) (Response, error) {
	return c.DoContext(ctx, Request{Op: OpRange, Key: from, KeyHi: hi, Limit: limit})
}

// Retries returns how many busy re-submissions the client's retry policy
// has made over its lifetime — the load generator's retry-rate counter.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// PingContext round-trips a no-op frame under ctx.
func (c *Client) PingContext(ctx context.Context) error {
	r, err := c.DoContext(ctx, Request{Op: OpPing, Val: 42})
	if err != nil {
		return err
	}
	if r.Status != StatusOK || r.Val != 42 {
		return fmt.Errorf("server: ping got %v/%d", r.Status, r.Val)
	}
	return nil
}

// Close tears the connection down immediately; in-flight calls fail with an
// error wrapping ErrClosed.
func (c *Client) Close() error {
	// fail() first: it wins the first-error slot, so in-flight calls see
	// ErrClosed instead of the readLoop's "use of closed connection".
	c.fail(fmt.Errorf("server: client closed: %w", ErrClosed))
	return c.conn.Close()
}

// CloseContext waits for every in-flight call to complete — the graceful
// counterpart to Close — then tears the connection down. If ctx ends
// first, it closes immediately (failing the stragglers) and returns the
// context's error.
func (c *Client) CloseContext(ctx context.Context) error {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		c.mu.Lock()
		n := c.inUse
		broken := c.err != nil
		c.mu.Unlock()
		if n == 0 || broken {
			return c.Close()
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			c.Close()
			return ctx.Err()
		}
	}
}
