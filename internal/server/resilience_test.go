package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ibr/internal/core"
	"ibr/internal/epoch"
)

// waitFor polls cond every millisecond until it holds or the deadline
// passes; it reports whether cond held.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// sum folds one counter over all shards.
func sum(stats []ShardStats, f func(ShardStats) uint64) uint64 {
	var t uint64
	for _, s := range stats {
		t += f(s)
	}
	return t
}

func unreclaimed(stats []ShardStats) int {
	var t int
	for _, s := range stats {
		t += s.Unreclaimed
	}
	return t
}

// pinnedBacklog runs churn in steps and returns the largest backlog seen
// while no tid was quarantined yet: the evidence that the stall pinned it.
// Sampling only after the whole churn is not enough — under -race the churn
// alone can outlast QuarantineAfter, and a quarantine that fired first has
// already drained the backlog.
func pinnedBacklog(eng *Engine, churn func(rounds int), rounds int) int {
	pinned := 0
	for r := 0; r < rounds; r += 100 {
		churn(100)
		st := eng.Stats()
		if sum(st, func(s ShardStats) uint64 { return s.Quarantines }) == 0 {
			pinned = max(pinned, unreclaimed(st))
		}
	}
	return pinned
}

// TestQuarantineDrainsStalledBacklog is the acceptance scenario: an
// injected staller pins reclamation for 30s (far beyond the test), churn
// builds an unreclaimed backlog behind it, and the remediator must
// quarantine the stalled tid and drain the backlog to near-baseline well
// within a second — WITHOUT the stall ever ending on its own. It runs
// under both pin mechanisms: ebr (a stuck epoch reservation the clear
// withdraws) and hyaline (a stuck active slot whose batch references the
// clear force-drops).
func TestQuarantineDrainsStalledBacklog(t *testing.T) {
	ctx := context.Background()
	for _, scheme := range []string{"ebr", "hyaline"} {
		t.Run(scheme, func(t *testing.T) {
			eng, err := NewEngine(EngineConfig{
				Scheme: scheme, Shards: 1, WorkersPerShard: 1,
				EpochFreq: 4, EmptyFreq: 4,
				Stalled: 1, StallFor: 30 * time.Second,
				QuarantineAfter: 50 * time.Millisecond,
				RemedyInterval:  10 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			// Give the staller time to park and publish its reservation, then
			// churn: every Del retires a node the pin keeps unreclaimable.
			time.Sleep(20 * time.Millisecond)
			churn := func(rounds int) {
				for i := 0; i < rounds; i++ {
					k := uint64(i % 512)
					if _, err := eng.DoContext(ctx, Request{Op: OpPut, Key: k, Val: k + 1}); err != nil {
						t.Fatal(err)
					}
					if _, err := eng.DoContext(ctx, Request{Op: OpDel, Key: k}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if pinnedBacklog(eng, churn, 2000) == 0 {
				t.Fatal("stall did not pin a backlog; the scenario is vacuous")
			}

			if !waitFor(2*time.Second, func() bool {
				return sum(eng.Stats(), func(s ShardStats) uint64 { return s.Quarantines }) > 0
			}) {
				t.Fatal("remediator never quarantined the stalled tid")
			}
			// The stall is still "running" (StallFor is 30s); only the
			// quarantine can release the backlog. A little more traffic lets
			// cadence scans run post-clear, and the quarantining tick itself
			// drains once.
			start := time.Now()
			ok := waitFor(time.Second, func() bool {
				churn(50)
				return unreclaimed(eng.Stats()) < 200
			})
			if !ok {
				t.Fatalf("backlog stuck at %d blocks %v after quarantine; want near-baseline without waiting out the stall",
					unreclaimed(eng.Stats()), time.Since(start))
			}
		})
	}
}

// TestQuarantineNeutralizesDEBRA runs the same acceptance scenario under
// the debra scheme, where the quarantine is not just a reservation clear
// but a real DEBRA+ neutralization: the remediator's ClearReservation must
// latch the staller's neutralize flag (signaled > 0) and the stalled
// backlog must drain while the stall keeps running — the remediator's
// park-age check standing in for DEBRA+'s POSIX signal.
func TestQuarantineNeutralizesDEBRA(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(EngineConfig{
		Scheme: "debra", Shards: 1, WorkersPerShard: 1,
		EpochFreq: 4, EmptyFreq: 4,
		Stalled: 1, StallFor: 30 * time.Second,
		QuarantineAfter: 50 * time.Millisecond,
		RemedyInterval:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	time.Sleep(20 * time.Millisecond) // let the staller park and pin
	churn := func(rounds int) {
		for i := 0; i < rounds; i++ {
			k := uint64(i % 512)
			if _, err := eng.DoContext(ctx, Request{Op: OpPut, Key: k, Val: k + 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.DoContext(ctx, Request{Op: OpDel, Key: k}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if pinnedBacklog(eng, churn, 2000) == 0 {
		t.Fatal("stall did not pin a backlog; the scenario is vacuous")
	}

	if !waitFor(2*time.Second, func() bool {
		return sum(eng.Stats(), func(s ShardStats) uint64 { return s.Quarantines }) > 0
	}) {
		t.Fatal("remediator never quarantined the stalled tid")
	}
	d, ok := eng.shards[0].inst.Scheme().(*core.DEBRA)
	if !ok {
		t.Fatalf("shard scheme is %T, want *core.DEBRA", eng.shards[0].inst.Scheme())
	}
	// The remediator delivers the signal and then counts the quarantine, in
	// one call under the staller's slot mutex.
	if !waitFor(time.Second, func() bool { sig, _ := d.NeutralizeStats(); return sig > 0 }) {
		t.Fatal("quarantine delivered no neutralization signal")
	}
	ok = waitFor(time.Second, func() bool {
		churn(50)
		return unreclaimed(eng.Stats()) < 200
	})
	if !ok {
		t.Fatalf("backlog stuck at %d blocks after neutralization; the stall never ended on its own",
			unreclaimed(eng.Stats()))
	}
}

// TestSheddingAboveHardWatermark: with a staller pinning reclamation
// indefinitely and watermarks scaled down to a tiny pool, churn must push
// the shard over its hard cap and turn SubmitRequest into ErrShedding — admission
// control instead of unbounded backlog growth.
func TestSheddingAboveHardWatermark(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(EngineConfig{
		Scheme: "ebr", Shards: 1, WorkersPerShard: 1,
		EpochFreq: 4, EmptyFreq: 4,
		PoolSlots: 4096,
		Stalled:   1, StallFor: 30 * time.Second,
		QuarantineAfter: 10 * time.Minute, // never quarantine: shedding must act alone
		RemedyInterval:  5 * time.Millisecond,
		SoftWatermark:   0.02, HardWatermark: 0.05, // hard cap ≈ 204 blocks
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	time.Sleep(20 * time.Millisecond) // staller parks and pins
	var sawShedding bool
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		k := uint64(i % 1024)
		if _, err := eng.DoContext(ctx, Request{Op: OpPut, Key: k, Val: k + 1}); err != nil {
			if errors.Is(err, ErrShedding) {
				sawShedding = true
				break
			}
			t.Fatal(err)
		}
		if _, err := eng.DoContext(ctx, Request{Op: OpDel, Key: k}); err != nil {
			if errors.Is(err, ErrShedding) {
				sawShedding = true
				break
			}
			t.Fatal(err)
		}
	}
	if !sawShedding {
		t.Fatalf("no ErrShedding despite %d unreclaimed blocks above a hard cap of ~204",
			unreclaimed(eng.Stats()))
	}
	if got := sum(eng.Stats(), func(s ShardStats) uint64 { return s.Shed }); got == 0 {
		t.Fatal("Shed counter did not move")
	}
}

// TestPoolExhaustionBecomesBusy: under the leak scheme a small pool runs
// dry; Puts must answer StatusBusy — typed backpressure — rather than
// panicking or misreporting StatusExists.
func TestPoolExhaustionBecomesBusy(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(EngineConfig{
		Scheme: "none", Shards: 1, WorkersPerShard: 1,
		PoolSlots: 256,
		// Keep admission out of the way: NoMM retires nothing, so the
		// watermarks never trip; this test is about the alloc path.
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var sawBusy bool
	for i := uint64(0); i < 1024; i++ {
		resp, err := eng.DoContext(ctx, Request{Op: OpPut, Key: i, Val: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		switch resp.Status {
		case StatusOK:
		case StatusBusy:
			sawBusy = true
		default:
			t.Fatalf("Put %d answered %v, want OK or BUSY", i, resp.Status)
		}
		if sawBusy {
			break
		}
	}
	if !sawBusy {
		t.Fatal("pool never exhausted: the scenario is vacuous")
	}
	if got := sum(eng.Stats(), func(s ShardStats) uint64 { return s.PoolExhausted }); got == 0 {
		t.Fatal("PoolExhausted counter did not move")
	}
	// And the engine is still alive: reads keep working on the full pool.
	if r, err := eng.DoContext(ctx, Request{Op: OpGet, Key: 0}); err != nil || r.Status != StatusOK {
		t.Fatalf("Get after exhaustion = %v, %v; want OK", r, err)
	}
}

// TestStallerSurvivesQuarantine: after its park is quarantined, the staller
// goroutine wakes at the end of its stall, finds the park revoked, skips
// its EndOp, and stalls again on the same tid — the injected fault stays
// alive for the telemetry while the engine keeps remediating. StallFor is
// short here so the revoke-wake-stall cycle completes several times
// in-test.
func TestStallerSurvivesQuarantine(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Scheme: "ebr", Shards: 1, WorkersPerShard: 1,
		EpochFreq: 4, EmptyFreq: 4,
		Stalled: 1, StallFor: 150 * time.Millisecond,
		QuarantineAfter: 30 * time.Millisecond,
		RemedyInterval:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Two quarantines prove the cycle: pin → quarantine → wake → pin.
	if !waitFor(3*time.Second, func() bool {
		return sum(eng.Stats(), func(s ShardStats) uint64 { return s.Quarantines }) >= 2
	}) {
		t.Fatalf("quarantines = %d, want >= 2 (staller should wake and stall again)",
			sum(eng.Stats(), func(s ShardStats) uint64 { return s.Quarantines }))
	}
}

// TestQuarantineAgeIsPerPark: the quarantine threshold applies to the
// current park, not to how long a staller has kept stalling. Every 40 ms
// stall ends far inside the 300 ms threshold, so a staller that parks
// back to back for a second must never be quarantined.
func TestQuarantineAgeIsPerPark(t *testing.T) {
	const stallFor, after = 40 * time.Millisecond, 300 * time.Millisecond
	eng, err := NewEngine(EngineConfig{
		Scheme: "ebr", Shards: 1, WorkersPerShard: 1,
		Stalled: 1, StallFor: stallFor,
		QuarantineAfter: after,
		RemedyInterval:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Idle tids hold no reservation, so a published one is the staller's.
	res := eng.shards[0].inst.Scheme().Reservations()
	pinned := 0
	for end := time.Now().Add(time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if res.MinLower() != epoch.None {
			pinned++
		}
	}
	if pinned == 0 {
		t.Fatal("the staller never held a reservation; the scenario is vacuous")
	}
	if q := sum(eng.Stats(), func(s ShardStats) uint64 { return s.Quarantines }); q != 0 {
		t.Fatalf("%d quarantines of stalls that each last %v, under QuarantineAfter %v", q, stallFor, after)
	}
}

// TestPanicRecoversInPlace: a panic is recovered on the tid it ran under,
// wherever it lands — a SubmitRequest on a worker, a point request or a
// range leg on a connection reader, an expiry batch on the remediator. The
// request is answered INTERNAL (an expiry batch re-arms its keys instead),
// one death is counted and nothing is quarantined, the tid is released
// and the same path keeps serving, and shutdown still reclaims every block
// retired before and after the panic.
func TestPanicRecoversInPlace(t *testing.T) {
	const poison = uint64(7777)
	ctx := context.Background()
	// start boots an engine and server over structure whose hook panics
	// once: on the first execution of op on the poison key.
	start := func(t *testing.T, structure string, op Op) (*Engine, *Server, *Client) {
		var fired atomic.Bool
		addr, srv := startTestServer(t, EngineConfig{
			Structure: structure, Scheme: "ebr", Shards: 1, WorkersPerShard: 1,
			EpochFreq: 4, EmptyFreq: 1 << 20, // never scan: the backlog waits for the final drain
			RemedyInterval: 5 * time.Millisecond, ExpiryGranularity: 5 * time.Millisecond,
			testExecHook: func(o Op, key uint64) {
				if o == op && key == poison && fired.CompareAndSwap(false, true) {
					panic("injected fault")
				}
			},
		}, ServerConfig{})
		return srv.Engine(), srv, dialTest(t, addr)
	}
	// recovered checks what every case leaves behind: one death, no
	// quarantine, no tid left locked, and a backlog that shutdown reclaims.
	recovered := func(t *testing.T, eng *Engine, srv *Server) {
		t.Helper()
		st := eng.Stats()[0]
		if st.Deaths != 1 || st.Quarantines != 0 {
			t.Fatalf("Deaths = %d, Quarantines = %d; want 1 and 0", st.Deaths, st.Quarantines)
		}
		// The remediator may hold a tid for a moment; a leaked lock stays.
		for i := range eng.shards[0].tids {
			bt := &eng.shards[0].tids[i]
			if !waitFor(time.Second, func() bool {
				if !bt.mu.TryLock() {
					return false
				}
				bt.mu.Unlock()
				return true
			}) {
				t.Fatalf("tid %d still locked after the panic", bt.tid)
			}
		}
		if st.Unreclaimed == 0 {
			t.Fatal("nothing unreclaimed before shutdown: the drain check is vacuous")
		}
		srv.Shutdown()
		if un := unreclaimed(eng.Stats()); un != 0 {
			t.Fatalf("%d blocks unreclaimed after Shutdown, want 0", un)
		}
	}

	t.Run("worker", func(t *testing.T) {
		eng, srv, _ := start(t, "hashmap", OpGet)
		// DoContext always queues, so every request here runs on the worker.
		do := func(req Request, want Status) {
			t.Helper()
			if r, err := eng.DoContext(ctx, req); err != nil || r.Status != want {
				t.Fatalf("%v %d = %v, %v; want %v", req.Op, req.Key, r, err, want)
			}
		}
		churnEngine := func(base uint64) {
			for k := base; k < base+64; k++ {
				do(Request{Op: OpPut, Key: k, Val: k}, StatusOK)
				do(Request{Op: OpDel, Key: k}, StatusOK)
			}
		}
		churnEngine(0)
		do(Request{Op: OpGet, Key: poison}, StatusInternal)
		churnEngine(1000)
		if st := eng.Stats()[0]; st.Ops != 4*64 {
			t.Fatalf("Ops = %d; want %d requests completed", st.Ops, 4*64)
		}
		recovered(t, eng, srv)
	})

	t.Run("reader", func(t *testing.T) {
		eng, srv, cl := start(t, "hashmap", OpGet)
		churn(t, cl, 0, 64)
		if r, err := cl.Get(ctx, poison); err != nil || r.Status != StatusInternal {
			t.Fatalf("poisoned Get = %v, %v; want INTERNAL", r, err)
		}
		churn(t, cl, 1000, 64)
		recovered(t, eng, srv)
	})

	t.Run("range", func(t *testing.T) {
		eng, srv, cl := start(t, "skiplist", OpRange)
		churn(t, cl, 0, 64)
		for k := poison; k < poison+4; k++ {
			if r, err := cl.Put(ctx, k, k, 0); err != nil || r.Status != StatusOK {
				t.Fatalf("Put %d = %v, %v", k, r, err)
			}
		}
		if r, err := cl.Range(ctx, poison, poison+8, 0); err != nil || r.Status != StatusInternal {
			t.Fatalf("poisoned Range = %v, %v; want INTERNAL", r, err)
		}
		// The same range runs once the hook has fired: the reader and the
		// shard's tids kept serving.
		if r, err := cl.Range(ctx, poison, poison+8, 0); err != nil || r.Status != StatusOK || len(r.Pairs) != 4 {
			t.Fatalf("Range after the panic = %v, %v; want OK with 4 pairs", r, err)
		}
		churn(t, cl, 1000, 64)
		recovered(t, eng, srv)
	})

	t.Run("expiry", func(t *testing.T) {
		eng, srv, cl := start(t, "hashmap", OpDel)
		churn(t, cl, 0, 64)
		gone := func(k uint64) bool {
			r, err := cl.Get(ctx, k)
			return err == nil && r.Status == StatusNotFound
		}
		expire := func(keys ...uint64) {
			t.Helper()
			for _, k := range keys {
				if r, err := cl.Put(ctx, k, k, 20*time.Millisecond); err != nil || r.Status != StatusOK {
					t.Fatalf("TTL Put %d = %v, %v", k, r, err)
				}
			}
			if !waitFor(5*time.Second, func() bool {
				for _, k := range keys {
					if !gone(k) {
						return false
					}
				}
				return true
			}) {
				st := eng.Stats()[0]
				t.Fatalf("keys %v never lapsed: expired %d, pending %d, deaths %d", keys, st.Expired, st.ExpiryPending, st.Deaths)
			}
		}
		// The batch holding poison panics on it and must re-arm what it
		// has not removed, poison included, for a later tick to expire.
		expire(poison, poison+1)
		// The remediator keeps expiring after the panic.
		expire(poison + 2)
		if st := eng.Stats()[0]; st.Expired != 3 || st.ExpiryPending != 0 {
			t.Fatalf("Expired = %d, ExpiryPending = %d; want 3 and 0", st.Expired, st.ExpiryPending)
		}
		recovered(t, eng, srv)
	})
}
