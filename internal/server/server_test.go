package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ibr/internal/lincheck"
)

// startTestServer brings up an engine + server on a loopback port and
// returns the address plus a shutdown func.
func startTestServer(t testing.TB, cfg EngineConfig, scfg ServerConfig) (string, *Server) {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String(), srv
}

func TestServerEndToEnd(t *testing.T) {
	ctx := context.Background()
	addr, _ := startTestServer(t,
		EngineConfig{Shards: 4, WorkersPerShard: 2},
		ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.PingContext(ctx); err != nil {
		t.Fatal(err)
	}
	if r, err := cl.DoContext(ctx, Request{Op: OpPut, Key: 5, Val: 55}); err != nil || r.Status != StatusOK {
		t.Fatalf("Put = %v, %v", r, err)
	}
	if r, err := cl.DoContext(ctx, Request{Op: OpGet, Key: 5}); err != nil || r.Status != StatusOK || r.Val != 55 {
		t.Fatalf("Get = %v, %v", r, err)
	}
	if r, err := cl.DoContext(ctx, Request{Op: OpDel, Key: 5}); err != nil || r.Status != StatusOK {
		t.Fatalf("Del = %v, %v", r, err)
	}
	if r, err := cl.DoContext(ctx, Request{Op: OpGet, Key: 5}); err != nil || r.Status != StatusNotFound {
		t.Fatalf("Get after Del = %v, %v", r, err)
	}
}

// TestServerLinearizable records concurrent histories through real
// connections and checks them with internal/lincheck: the tid-borrowing
// layer must not reorder, lose, or double-apply operations even though
// requests from different connections interleave, on the same keys, on
// the readers that run them under whichever tid they borrow. A helper
// holds each shard's tid 0 in turn, so requests also land on the other
// tids and on waits for a busy one. The hashmap leg mixes GET/PUT/DEL; the
// skiplist leg adds RANGE over the same small key space.
//
// A RANGE's legs run one shard after another, so a scan is not one atomic
// cut: each key is observed at some instant inside the scan's window, on
// its own shard's leg. That is exactly what lincheck.RecordRange checks —
// every returned key was present and every covered key the scan did not
// return was absent at some point during the call. The scans are
// unlimited, so truncation cannot hide a key.
func TestServerLinearizable(t *testing.T) {
	t.Run("hashmap", func(t *testing.T) { checkLinearizable(t, "hashmap", 0) })
	t.Run("skiplist-range", func(t *testing.T) { checkLinearizable(t, "skiplist", 6) })
}

// checkLinearizable drives 4 clients of 120 ops each against structure and
// checks the history. One op in rangeEvery (0: none) is a RANGE of up to
// 12 keys.
func checkLinearizable(t *testing.T, structure string, rangeEvery int) {
	ctx := context.Background()
	addr, srv := startTestServer(t,
		EngineConfig{Structure: structure, Shards: 4, WorkersPerShard: 2, EpochFreq: 16, EmptyFreq: 8},
		ServerConfig{})
	eng := srv.Engine()

	stop := make(chan struct{})
	helperDone := make(chan struct{})
	defer func() { close(stop); <-helperDone }()
	go func() {
		defer close(helperDone)
		for i := 0; ; i++ {
			bt := &eng.shards[i%len(eng.shards)].tids[0]
			bt.mu.Lock()
			time.Sleep(100 * time.Microsecond)
			bt.mu.Unlock()
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()

	const (
		clients  = 4
		opsEach  = 120
		keySpace = 48 // ~10 point events/key expected; far under lincheck's 64 cap
		span     = 12 // a RANGE covers up to span keys: ~12 more events/key at 1 in 6
	)
	rec := lincheck.NewRecorder(clients)
	var (
		wg     sync.WaitGroup
		ranges atomic.Uint64
	)
	for c := 0; c < clients; c++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(tid int, cl *Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid) + 1))
			for i := 0; i < opsEach; i++ {
				key := rng.Uint64() % keySpace
				if rangeEvery > 0 && rng.Intn(rangeEvery) == 0 {
					hi := min(key+uint64(rng.Intn(span)), keySpace-1)
					invoke := rec.Begin()
					resp, err := cl.Range(ctx, key, hi, 0)
					if err != nil || resp.Status != StatusOK {
						t.Errorf("tid %d: Range [%d,%d] = %v, %v", tid, key, hi, resp, err)
						return
					}
					got := make([]uint64, len(resp.Pairs))
					for j, p := range resp.Pairs {
						got[j] = p.Key
					}
					covered := make([]uint64, 0, hi-key+1)
					for k := key; k <= hi; k++ {
						covered = append(covered, k)
					}
					if err := rec.RecordRange(tid, key, hi, got, covered, invoke); err != nil {
						t.Errorf("tid %d: %v", tid, err)
						return
					}
					ranges.Add(1)
					continue
				}
				var (
					kind lincheck.Kind
					op   Op
				)
				switch rng.Intn(4) {
				case 0:
					kind, op = lincheck.Insert, OpPut
				case 1:
					kind, op = lincheck.Remove, OpDel
				default:
					kind, op = lincheck.Get, OpGet
				}
				invoke := rec.Begin()
				resp, err := cl.DoContext(ctx, Request{Op: op, Key: key, Val: key*10 + uint64(tid)})
				if err != nil {
					t.Errorf("tid %d: %v", tid, err)
					return
				}
				var ok bool
				switch resp.Status {
				case StatusOK:
					ok = true
				case StatusNotFound, StatusExists:
					ok = false
				default:
					t.Errorf("tid %d: unexpected status %v", tid, resp.Status)
					return
				}
				rec.Record(tid, kind, key, ok, invoke)
			}
		}(c, cl)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	rep := lincheck.Check(rec.Events(), func(uint64) bool { return false })
	if err := rep.Err(); err != nil {
		t.Fatalf("%v (report: %+v)", err, rep)
	}
	if rep.EventsChecked == 0 {
		t.Fatal("lincheck verified no events")
	}
	if rangeEvery > 0 && ranges.Load() == 0 {
		t.Fatal("no RANGE in the history")
	}
	t.Logf("lincheck: %d keys, %d events checked, %d inconclusive, %d ranges",
		rep.Keys, rep.EventsChecked, rep.Inconclusive, ranges.Load())
}

// TestServerGracefulShutdown races in-flight traffic against Shutdown and
// checks the drain contract from the client's side: every DoContext call returns
// (a response or a connection error — never a hang), the server completes
// whatever it read, and the engine refuses work afterwards. Run with -race.
func TestServerGracefulShutdown(t *testing.T) {
	ctx := context.Background()
	addr, srv := startTestServer(t,
		EngineConfig{Shards: 2, WorkersPerShard: 2, EpochFreq: 16, EmptyFreq: 8},
		ServerConfig{MaxInflight: 32})

	const clients = 4
	var (
		responses atomic.Uint64
		connErrs  atomic.Uint64
		wg        sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(cl *Client, slot int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(slot)))
				for i := 0; ; i++ {
					op := OpPut
					if i%2 == 0 {
						op = OpDel
					}
					r, err := cl.DoContext(ctx, Request{Op: op, Key: rng.Uint64() % 128, Val: 1})
					if err != nil {
						connErrs.Add(1)
						return
					}
					responses.Add(1)
					if r.Status == StatusShutdown {
						return
					}
				}
			}(cl, c*4+g)
		}
	}
	time.Sleep(30 * time.Millisecond) // let traffic build
	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("clients hung across shutdown: drain lost an in-flight op")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	if responses.Load() == 0 {
		t.Fatal("no responses before shutdown — test raced to nothing")
	}
	// The engine is fully drained: new work is refused, and a second
	// shutdown is a no-op.
	if err := srv.Engine().SubmitRequest(Request{Op: OpPing}, func(Response) {}); err != ErrClosed {
		t.Fatalf("SubmitRequest after shutdown = %v, want ErrClosed", err)
	}
	srv.Shutdown()
	t.Logf("shutdown drain: %d responses delivered, %d conns ended in error", responses.Load(), connErrs.Load())
}

// TestServerRejectsGarbage checks a desynchronized stream is dropped and
// counted, and does not wedge the server for other clients.
func TestServerRejectsGarbage(t *testing.T) {
	ctx := context.Background()
	addr, srv := startTestServer(t,
		EngineConfig{Shards: 1, WorkersPerShard: 1},
		ServerConfig{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("GET / HTTP/1.1\r\n\r\n")) // not our protocol
	buf := make([]byte, 64)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server answered a garbage stream instead of closing it")
	}
	raw.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.ProtoDropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dropped connection not counted")
		}
		time.Sleep(time.Millisecond)
	}
	// A desynchronized stream is a dropped connection, not a rejected frame.
	if n := srv.ProtoRejected(); n != 0 {
		t.Fatalf("ProtoRejected = %d after a garbage stream, want 0", n)
	}
	// A well-behaved client still works.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.PingContext(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServerRejectsBadOp checks the other half of the protocol-error split:
// a well-framed request with an unknown op code is answered with
// StatusBadRequest on a connection that stays fully usable, and lands in
// ProtoRejected — not ProtoDropped.
func TestServerRejectsBadOp(t *testing.T) {
	addr, srv := startTestServer(t,
		EngineConfig{Shards: 1, WorkersPerShard: 1},
		ServerConfig{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(5 * time.Second))

	frame := appendRequest(nil, 7, Request{Op: Op(99), Key: 1, Val: 2})
	frame = appendRequest(frame, 8, Request{Op: OpPing, Val: 42}) // valid op on the same conn
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(raw)
	got := map[uint32]Status{}
	for i := 0; i < 2; i++ {
		payload, err := readFrame(br, maxRespFrame, nil)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		id, resp, perr := parseResponse(payload)
		if perr != nil {
			t.Fatalf("response %d: %v", i, perr)
		}
		got[id] = resp.Status
	}
	if got[7] != StatusBadRequest {
		t.Fatalf("bad-op response = %v, want BAD_REQUEST", got[7])
	}
	if got[8] != StatusOK {
		t.Fatalf("ping after bad op = %v, want OK (connection must survive)", got[8])
	}
	if n := srv.ProtoRejected(); n != 1 {
		t.Fatalf("ProtoRejected = %d, want 1", n)
	}
	if n := srv.ProtoDropped(); n != 0 {
		t.Fatalf("ProtoDropped = %d, want 0 (the connection was never dropped)", n)
	}
}

// TestClientSlotIDWrap pins the reply slot table's id rule: an id is never
// reassigned while its response is outstanding, not even across a
// generation wrap. An abandoned call keeps its slot until the late response
// arrives, a call issued meanwhile gets another id, the late response is
// absorbed rather than delivered, and the abandoned slot is reused under
// its wrapped generation only afterwards. Every answer reaches only its own
// caller.
func TestClientSlotIDWrap(t *testing.T) {
	var (
		mu    sync.Mutex
		ids   []uint32 // request ids in the order the server read them
		hold1 = make(chan struct{})
		hold2 = make(chan struct{})
	)
	addr := startFakeServer(t, func(id uint32, req Request) (Response, time.Duration) {
		mu.Lock()
		ids = append(ids, id)
		mu.Unlock()
		switch req.Key { // the fake server answers in order, so a held call holds the ones behind it
		case 1:
			<-hold1
		case 2:
			<-hold2
		}
		return Response{Status: StatusOK, Val: req.Val}, 0
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Two slots, each one call away from wrapping its generation; slot 0 is
	// handed out first.
	cl.mu.Lock()
	a, _, _ := cl.claim()
	b, _, _ := cl.claim()
	cl.release(b)
	cl.release(a)
	for i := range cl.slots {
		cl.slots[i].gen = maxGen
	}
	cl.mu.Unlock()
	inUse := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			cl.mu.Lock()
			got := cl.inUse
			cl.mu.Unlock()
			if got == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d reply slots in use, want %d", got, want)
			}
		}
	}
	call := func(key, val uint64) <-chan error {
		errc := make(chan error, 1)
		go func() {
			r, err := cl.DoContext(context.Background(), Request{Op: OpGet, Key: key, Val: val})
			if err == nil && r.Val != val {
				err = fmt.Errorf("call %d got the answer to call %d", val, r.Val)
			}
			errc <- err
		}()
		return errc
	}

	// Abandon a call on slot 0 while the server holds its response.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := cl.DoContext(ctx, Request{Op: OpGet, Key: 1, Val: 777}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("held call = %v, want context.DeadlineExceeded", err)
	}
	inUse(1) // the abandoned call keeps its slot

	// A call issued while the late response is outstanding takes slot 1.
	p1 := call(0, 11)
	inUse(2)
	close(hold1) // the late response arrives, then p1's
	if err := <-p1; err != nil {
		t.Fatal(err)
	}
	inUse(0)
	cl.mu.Lock()
	for i, s := range cl.slots {
		if s.state != slotFree || s.gen != 0 || len(s.ch) != 0 {
			t.Errorf("slot %d after the late response: state %d gen %d, %d results queued; want free, gen 0 (wrapped), none", i, s.state, s.gen, len(s.ch))
		}
	}
	cl.mu.Unlock()

	// Two overlapping calls through the wrap: slot 1 and then slot 0, the
	// abandoned call's, both at generation 0.
	p2 := call(2, 21)
	inUse(1)
	p3 := call(0, 22)
	inUse(2)
	close(hold2)
	for _, errc := range []<-chan error{p2, p3} {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	inUse(0)

	mu.Lock()
	defer mu.Unlock()
	want := []uint32{maxGen<<slotBits | 0, maxGen<<slotBits | 1, 0<<slotBits | 1, 0<<slotBits | 0}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("server read ids %v, want %v", ids, want)
	}
}

// TestServerIdleTimeout: the server re-arms ServerConfig.IdleTimeout before
// each read from the socket, so a client that keeps pipelining calls for
// several timeouts is never cut off, and a connection that then stays
// silent for longer than the timeout is closed, failing its next call with
// a transport error.
func TestServerIdleTimeout(t *testing.T) {
	const idle = 100 * time.Millisecond
	addr, _ := startTestServer(t,
		EngineConfig{Shards: 2, WorkersPerShard: 1},
		ServerConfig{IdleTimeout: idle})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx := context.Background()
	stop := time.Now().Add(4 * idle)
	var (
		wg    sync.WaitGroup
		calls atomic.Int64
		errs  = make(chan error, 4)
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			for time.Now().Before(stop) {
				if _, err := cl.Get(ctx, key); err != nil {
					errs <- err
					return
				}
				calls.Add(1)
			}
		}(uint64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("call while pipelining for %v with a %v idle timeout: %v", 4*idle, idle, err)
	}
	t.Logf("%d calls in %v", calls.Load(), 4*idle)

	// Silence: the server closes the connection, and the client's reader
	// sees it.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(idle / 10) {
		cl.mu.Lock()
		broken := cl.err != nil
		cl.mu.Unlock()
		if broken {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("connection still open 5s into a silence, idle timeout %v", idle)
		}
	}
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	_, err = cl.Get(cctx, 1)
	if err == nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrClosed) {
		t.Fatalf("call after the idle timeout = %v, want a transport error", err)
	}
}

// TestServerPipelining issues a burst of concurrent requests over one
// connection and checks ids match values back correctly.
func TestServerPipelining(t *testing.T) {
	ctx := context.Background()
	addr, _ := startTestServer(t,
		EngineConfig{Shards: 2, WorkersPerShard: 2},
		ServerConfig{MaxInflight: 64})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				key := uint64(g*16 + i)
				if r, err := cl.DoContext(ctx, Request{Op: OpPut, Key: key, Val: key + 1000}); err != nil || r.Status != StatusOK {
					errs <- fmt.Errorf("Put %d: %v %v", key, r, err)
					return
				}
				if r, err := cl.DoContext(ctx, Request{Op: OpGet, Key: key}); err != nil || r.Val != key+1000 {
					errs <- fmt.Errorf("Get %d: %v %v", key, r, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
