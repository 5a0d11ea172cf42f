package server

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startFakeServer runs a minimal wire-protocol peer whose responses are
// scripted by handle — the way to force statuses (busy, slow) that a real
// engine only produces under contrived load.
func startFakeServer(t *testing.T, handle func(id uint32, req Request) (Response, time.Duration)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				buf := make([]byte, reqPayloadV2Len)
				for {
					p, err := readFrame(br, maxReqFrame, buf)
					if err != nil {
						return
					}
					id, req, _, err := parseRequest(p)
					if err != nil {
						return
					}
					resp, delay := handle(id, req)
					if delay > 0 {
						time.Sleep(delay)
					}
					if _, err := c.Write(appendResponse(nil, id, resp)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestBackoffDelayBounds: attempt n's delay is uniform in [exp/2, exp) for
// exp = min(Base<<n, Max) — exponential, capped, never zero, never above
// the cap.
func TestBackoffDelayBounds(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 100 * time.Millisecond}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for attempt := 0; attempt < 12; attempt++ {
			exp := p.BaseDelay << attempt
			if exp > p.MaxDelay {
				exp = p.MaxDelay
			}
			d := backoffDelay(p, attempt, rng)
			if d < exp/2 || d >= exp {
				t.Fatalf("seed %d attempt %d: delay %v outside [%v, %v)", seed, attempt, d, exp/2, exp)
			}
		}
	}
}

// TestDoRetryExhaustion: a server that never stops answering BUSY makes the
// retry loop spend its attempts, count the retries, and return an error
// wrapping ErrBusy alongside the last busy Response.
func TestDoRetryExhaustion(t *testing.T) {
	addr := startFakeServer(t, func(id uint32, req Request) (Response, time.Duration) {
		return Response{Status: StatusBusy}, 0
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	resp, err := cl.doRetry(context.Background(), Request{Op: OpPut, Key: 1, Val: 2}, p)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("doRetry error = %v, want errors.Is ErrBusy", err)
	}
	if resp.Status != StatusBusy {
		t.Fatalf("doRetry resp = %v, want the last busy response", resp)
	}
	if got := cl.Retries(); got != uint64(p.MaxAttempts-1) {
		t.Fatalf("Retries() = %d, want %d", got, p.MaxAttempts-1)
	}
}

// TestDoRetryEventualSuccess: busy responses stop after two tries; the
// third succeeds with no error.
func TestDoRetryEventualSuccess(t *testing.T) {
	var calls atomic.Int32
	addr := startFakeServer(t, func(id uint32, req Request) (Response, time.Duration) {
		if calls.Add(1) <= 2 {
			return Response{Status: StatusBusy}, 0
		}
		return Response{Status: StatusOK, Val: req.Val}, 0
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}.withDefaults()
	resp, err := cl.doRetry(context.Background(), Request{Op: OpPut, Key: 1, Val: 7}, p)
	if err != nil || resp.Status != StatusOK || resp.Val != 7 {
		t.Fatalf("doRetry = %v, %v; want OK/7", resp, err)
	}
}

// TestWithRetryClient: a WithRetry client retries transparently inside
// DoContext — no per-call policy — and succeeds with no error once the
// server stops answering busy.
func TestWithRetryClient(t *testing.T) {
	var calls atomic.Int32
	addr := startFakeServer(t, func(id uint32, req Request) (Response, time.Duration) {
		if calls.Add(1) <= 2 {
			return Response{Status: StatusBusy}, 0
		}
		return Response{Status: StatusOK, Val: req.Val}, 0
	})
	cl, err := Dial(addr, WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.DoContext(context.Background(), Request{Op: OpPut, Key: 1, Val: 7})
	if err != nil || resp.Status != StatusOK || resp.Val != 7 {
		t.Fatalf("DoContext = %v, %v; want OK/7", resp, err)
	}
	if got := cl.Retries(); got != 2 {
		t.Fatalf("Retries() = %d, want 2", got)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

// TestWithRetryExhaustion: a server that never stops answering BUSY makes a
// WithRetry client spend every attempt, back off between them, count the
// retries, and return the last busy Response with an error wrapping ErrBusy.
func TestWithRetryExhaustion(t *testing.T) {
	var (
		mu       sync.Mutex
		arrivals []time.Time
	)
	addr := startFakeServer(t, func(id uint32, req Request) (Response, time.Duration) {
		mu.Lock()
		arrivals = append(arrivals, time.Now())
		mu.Unlock()
		return Response{Status: StatusBusy}, 0
	})
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	cl, err := Dial(addr, WithRetry(p))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Get(context.Background(), 1)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("Get error = %v, want errors.Is ErrBusy", err)
	}
	if resp.Status != StatusBusy {
		t.Fatalf("Get resp = %v, want the last busy response", resp)
	}
	if got := cl.Retries(); got != uint64(p.MaxAttempts-1) {
		t.Fatalf("Retries() = %d, want %d", got, p.MaxAttempts-1)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) != p.MaxAttempts {
		t.Fatalf("server saw %d attempts, want %d", len(arrivals), p.MaxAttempts)
	}
	// Attempt n+1 waits at least the jitter floor of backoffDelay(p, n).
	for n := 0; n+1 < len(arrivals); n++ {
		floor := min(p.BaseDelay<<n, p.MaxDelay) / 2
		if gap := arrivals[n+1].Sub(arrivals[n]); gap < floor {
			t.Fatalf("attempt %d followed attempt %d after %v, want a backoff of at least %v", n+2, n+1, gap, floor)
		}
	}
}

// TestDoContextPreCancelled: an already-dead context never touches the wire.
func TestDoContextPreCancelled(t *testing.T) {
	addr := startFakeServer(t, func(id uint32, req Request) (Response, time.Duration) {
		t.Error("request reached the server despite a cancelled context")
		return Response{Status: StatusOK}, 0
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.DoContext(ctx, Request{Op: OpGet, Key: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("DoContext = %v, want context.Canceled", err)
	}
}

// TestDoContextAbandonInFlight: a deadline that expires while the request
// is on the wire abandons the call — and ONLY the call. The late response
// is absorbed when it arrives and the same client keeps working, which is
// the whole point of keeping the pending entry alive.
func TestDoContextAbandonInFlight(t *testing.T) {
	addr := startFakeServer(t, func(id uint32, req Request) (Response, time.Duration) {
		if req.Op == OpGet {
			return Response{Status: StatusOK, Val: 9}, 150 * time.Millisecond // slow: outlives the deadline
		}
		return Response{Status: StatusOK, Val: req.Val}, 0
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := cl.Get(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get = %v, want context.DeadlineExceeded", err)
	}
	// The abandoned response lands mid-flight; the client must survive it
	// and keep serving new calls on the same connection.
	if err := cl.PingContext(context.Background()); err != nil {
		t.Fatalf("client unusable after abandoned call: %v", err)
	}
}

// TestCloseWrapsErrClosed: calls failed by Close report an error callers
// can match with errors.Is(err, ErrClosed).
func TestCloseWrapsErrClosed(t *testing.T) {
	ctx := context.Background()
	addr := startFakeServer(t, func(id uint32, req Request) (Response, time.Duration) {
		return Response{Status: StatusOK, Val: req.Val}, time.Second // park the call until Close
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := cl.DoContext(ctx, Request{Op: OpGet, Key: 1})
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the call get on the wire
	cl.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("in-flight DoContext after Close = %v, want errors.Is ErrClosed", err)
	}
}

// TestCloseContextGraceful: CloseContext waits out in-flight calls instead
// of failing them.
func TestCloseContextGraceful(t *testing.T) {
	ctx := context.Background()
	addr := startFakeServer(t, func(id uint32, req Request) (Response, time.Duration) {
		return Response{Status: StatusOK, Val: req.Val}, 50 * time.Millisecond
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := cl.DoContext(ctx, Request{Op: OpPut, Key: 1, Val: 5})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := cl.CloseContext(context.Background()); err != nil {
		t.Fatalf("CloseContext: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("in-flight DoContext during graceful close: %v", err)
	}
}
