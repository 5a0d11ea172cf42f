package server

import (
	"context"
	"testing"
	"time"
)

// churn puts and deletes n keys from base through cl, one request at a
// time, and fails the test on any answer but OK. Each DEL retires a node.
func churn(t *testing.T, cl *Client, base, n uint64) {
	t.Helper()
	ctx := context.Background()
	for k := base; k < base+n; k++ {
		if r, err := cl.Put(ctx, k, 2*k+1, 0); err != nil || r.Status != StatusOK {
			t.Fatalf("Put %d = %v, %v", k, r, err)
		}
		if r, err := cl.Del(ctx, k); err != nil || r.Status != StatusOK {
			t.Fatalf("Del %d = %v, %v", k, r, err)
		}
	}
}

func dialTest(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestTidsRefusedAfterClose: once Engine.Close has begun, a reader's
// request — point or range — is refused and the client is answered
// SHUTDOWN, with nothing executed. A reader that was admitted before Close
// and reaches a tid only after Close has closed them is refused by the tid
// itself (run answers ErrClosed).
func TestTidsRefusedAfterClose(t *testing.T) {
	addr, srv := startTestServer(t, EngineConfig{Structure: "skiplist", Shards: 2, WorkersPerShard: 1}, ServerConfig{})
	eng := srv.Engine()
	cl := dialTest(t, addr)
	ctx := context.Background()
	ops := func(s ShardStats) uint64 { return s.Ops }

	if r, err := cl.Put(ctx, 1, 3, 0); err != nil || r.Status != StatusOK {
		t.Fatalf("Put = %v, %v", r, err)
	}
	before := sum(eng.Stats(), ops)
	eng.Close()
	for _, req := range []Request{
		{Op: OpPing}, {Op: OpGet, Key: 1}, {Op: OpPut, Key: 2, Val: 5}, {Op: OpDel, Key: 1},
		{Op: OpRange, Key: 0, KeyHi: 10},
	} {
		if r, err := cl.DoContext(ctx, req); err != nil || r.Status != StatusShutdown {
			t.Fatalf("%v after Close = %v, %v; want SHUTDOWN", req.Op, r, err)
		}
		if _, err := eng.run(&req); err != ErrClosed {
			t.Fatalf("run(%v) past admission after Close = %v, want ErrClosed", req.Op, err)
		}
	}
	if after := sum(eng.Stats(), ops); after != before {
		t.Fatalf("requests executed after Close: ops %d → %d", before, after)
	}
}

// TestBorrowedTidsDrainedAboveSoftWatermark: no goroutine owns a borrowed
// tid, so once borrowers stop visiting one nothing scans its retire list
// on its own (EmptyFreq is out of reach here). The remediator must drain
// every borrowed tid above the soft watermark. An injected staller pins
// every retirement while the test churns under each borrowed tid in turn,
// holding its lock as a reader does, so nothing the remediator drains
// meanwhile is freed. The test then clears the staller's reservation as a
// quarantine does, but without the drain a quarantining tick adds. No
// request arrives after that, so only the remediator's soft-watermark
// drains can reclaim the backlog, and they must reach every tid.
func TestBorrowedTidsDrainedAboveSoftWatermark(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Scheme: "ebr", Shards: 1, WorkersPerShard: 2,
		EpochFreq: 4, EmptyFreq: 1 << 20,
		PoolSlots: 4096,
		Stalled:   1, StallFor: 30 * time.Second,
		QuarantineAfter: 10 * time.Minute, // the test lifts the pin itself
		RemedyInterval:  5 * time.Millisecond,
		SoftWatermark:   0.02, HardWatermark: 0.9, // soft cap ≈ 81 blocks; never shed
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sh := eng.shards[0]
	s := sh.inst.Scheme()

	staller := &sh.stallers[0]
	if !waitFor(time.Second, func() bool {
		staller.mu.Lock()
		defer staller.mu.Unlock()
		return !staller.parkedAt.IsZero()
	}) {
		t.Fatal("the staller never parked")
	}
	const dels = 100
	for i := range sh.tids {
		bt := &sh.tids[i]
		bt.mu.Lock()
		for k := uint64(0); k < dels; k++ {
			for _, op := range []Op{OpPut, OpDel} {
				if r := eng.execPoint(sh, bt.tid, &Request{Op: op, Key: k, Val: k}); r.Status != StatusOK {
					bt.mu.Unlock()
					t.Fatalf("%v %d under tid %d = %v", op, k, bt.tid, r)
				}
			}
		}
		bt.mu.Unlock()
		if un := s.Unreclaimed(bt.tid); un < dels {
			t.Fatalf("tid %d: pinned backlog %d, want >= %d", bt.tid, un, dels)
		}
	}
	ops := eng.Stats()[0].Ops
	if !eng.quarantine(sh, staller, time.Now().Add(time.Hour)) {
		t.Fatal("the staller's park could not be cleared")
	}

	if !waitFor(5*time.Second, func() bool { return eng.Stats()[0].Unreclaimed == 0 }) {
		for i := range sh.tids {
			tid := sh.tids[i].tid
			t.Errorf("tid %d: %d blocks unreclaimed", tid, s.Unreclaimed(tid))
		}
		t.Fatalf("backlog not drained (soft cap %d): the remediator did not drain every borrowed tid", sh.softCap)
	}
	if after := eng.Stats()[0].Ops; after != ops {
		t.Fatalf("Ops rose from %d to %d with no request in flight", ops, after)
	}
}

// TestReaderWaitsForBusyTids: a reader whose shard has every borrowed tid
// held waits on one of them instead of answering BUSY, and is answered as
// soon as that tid is released, while the others are still held.
func TestReaderWaitsForBusyTids(t *testing.T) {
	addr, srv := startTestServer(t, EngineConfig{Shards: 1, WorkersPerShard: 1}, ServerConfig{})
	eng := srv.Engine()
	sh := eng.shards[0]
	cl := dialTest(t, addr)

	held := make([]bool, len(sh.tids))
	for i := range sh.tids {
		sh.tids[i].mu.Lock()
		held[i] = true
	}
	release := func(i int) {
		if held[i] {
			held[i] = false
			sh.tids[i].mu.Unlock()
		}
	}
	defer func() {
		for i := range held {
			release(i)
		}
	}()
	type result struct {
		r   Response
		err error
	}
	got := make(chan result, 1)
	go func() {
		r, err := cl.Put(context.Background(), 7, 70, 0)
		got <- result{r, err}
	}()
	// Every TryLock failed once the reader takes borrow's Lock fallback.
	if !waitFor(5*time.Second, func() bool { return sh.next.Load() != 0 }) {
		t.Fatal("the reader never fell back to waiting on a tid")
	}
	select {
	case res := <-got:
		t.Fatalf("Put = %v, %v while every tid was held; want it to wait", res.r, res.err)
	case <-time.After(20 * time.Millisecond):
	}
	// Release only the tid the reader waits on.
	release(int(sh.next.Load() % uint32(len(sh.tids))))
	select {
	case res := <-got:
		if res.err != nil || res.r.Status != StatusOK {
			t.Fatalf("Put = %v, %v after a tid was released; want OK", res.r, res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the reader was not answered after its tid was released")
	}
	if st := eng.Stats()[0]; st.Ops != 1 || st.Shed != 0 {
		t.Fatalf("Ops = %d, Shed = %d; want 1 and 0", st.Ops, st.Shed)
	}
}
