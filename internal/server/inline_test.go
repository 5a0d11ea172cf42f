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

// TestInlineRefusedAfterClose: once Engine.Close has begun, readers no
// longer borrow the inline tid. A point request takes the queue path,
// SubmitRequest refuses it, and the client is answered SHUTDOWN.
func TestInlineRefusedAfterClose(t *testing.T) {
	addr, srv := startTestServer(t, EngineConfig{Shards: 2, WorkersPerShard: 1}, ServerConfig{})
	eng := srv.Engine()
	cl := dialTest(t, addr)
	ctx := context.Background()
	ops := func(s ShardStats) uint64 { return s.Ops }
	inline := func(s ShardStats) uint64 { return s.Inline }

	if r, err := cl.Put(ctx, 1, 3, 0); err != nil || r.Status != StatusOK {
		t.Fatalf("Put = %v, %v", r, err)
	}
	before := eng.Stats()
	if sum(before, inline) != 1 {
		t.Fatal("the Put did not run inline")
	}
	eng.Close()
	for _, req := range []Request{{Op: OpPing}, {Op: OpGet, Key: 1}, {Op: OpPut, Key: 2, Val: 5}, {Op: OpDel, Key: 1}} {
		if r, err := cl.DoContext(ctx, req); err != nil || r.Status != StatusShutdown {
			t.Fatalf("%v after Close = %v, %v; want SHUTDOWN", req.Op, r, err)
		}
	}
	after := eng.Stats()
	if sum(after, ops) != sum(before, ops) || sum(after, inline) != sum(before, inline) {
		t.Fatalf("requests executed after Close: ops %d → %d, inline %d → %d",
			sum(before, ops), sum(after, ops), sum(before, inline), sum(after, inline))
	}
}

// TestInlineTidDrainedAboveSoftWatermark: the inline tid has no worker, so
// once readers stop borrowing it nothing scans its retire list on its own
// (EmptyFreq is out of reach here). The remediator must drain it above the
// soft watermark. An injected staller pins every retirement while a reader
// churns, so nothing the remediator drains meanwhile is freed. The test
// then clears the staller's reservation as a quarantine does, but without
// the drain a quarantining tick adds. No request arrives after that, so
// only the remediator's soft-watermark drain can reclaim the backlog.
func TestInlineTidDrainedAboveSoftWatermark(t *testing.T) {
	addr, srv := startTestServer(t, EngineConfig{
		Scheme: "ebr", Shards: 1, WorkersPerShard: 1,
		EpochFreq: 4, EmptyFreq: 1 << 20,
		PoolSlots: 4096,
		Stalled:   1, StallFor: 30 * time.Second,
		QuarantineAfter: 10 * time.Minute, // the test lifts the pin itself
		RemedyInterval:  5 * time.Millisecond,
		SoftWatermark:   0.02, HardWatermark: 0.9, // soft cap ≈ 81 blocks; never shed
	}, ServerConfig{})
	eng := srv.Engine()
	sh := eng.shards[0]
	cl := dialTest(t, addr)

	staller := &sh.stallers[0]
	if !waitFor(time.Second, func() bool {
		staller.mu.Lock()
		defer staller.mu.Unlock()
		return !staller.parkedAt.IsZero()
	}) {
		t.Fatal("the staller never parked")
	}
	const dels = 300
	churn(t, cl, 0, dels)
	st := eng.Stats()[0]
	if !eng.quarantine(sh, staller, time.Now().Add(time.Hour)) {
		t.Fatal("the staller's park could not be cleared")
	}
	if st.Unreclaimed < dels || st.Inline == 0 {
		t.Fatalf("pinned backlog %d (want >= %d), %d requests inline (want > 0)", st.Unreclaimed, dels, st.Inline)
	}

	if !waitFor(5*time.Second, func() bool { return eng.Stats()[0].Unreclaimed == 0 }) {
		t.Fatalf("backlog %d not drained (soft cap %d): the remediator did not drain the inline tid",
			eng.Stats()[0].Unreclaimed, sh.softCap)
	}
	if after := eng.Stats()[0].Inline; after != st.Inline {
		t.Fatalf("Inline rose from %d to %d with no request in flight", st.Inline, after)
	}
}
