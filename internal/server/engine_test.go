package server

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ibr/internal/ds"
)

func TestEngineBasicOps(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(EngineConfig{Shards: 4, WorkersPerShard: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if r, _ := eng.DoContext(ctx, Request{Op: OpGet, Key: 1}); r.Status != StatusNotFound {
		t.Fatalf("Get(empty) = %v", r.Status)
	}
	if r, _ := eng.DoContext(ctx, Request{Op: OpPut, Key: 1, Val: 100}); r.Status != StatusOK {
		t.Fatalf("Put = %v", r.Status)
	}
	if r, _ := eng.DoContext(ctx, Request{Op: OpPut, Key: 1, Val: 200}); r.Status != StatusExists {
		t.Fatalf("second Put = %v", r.Status)
	}
	if r, _ := eng.DoContext(ctx, Request{Op: OpGet, Key: 1}); r.Status != StatusOK || r.Val != 100 {
		t.Fatalf("Get = %v/%d", r.Status, r.Val)
	}
	if r, _ := eng.DoContext(ctx, Request{Op: OpDel, Key: 1}); r.Status != StatusOK {
		t.Fatalf("Del = %v", r.Status)
	}
	if r, _ := eng.DoContext(ctx, Request{Op: OpDel, Key: 1}); r.Status != StatusNotFound {
		t.Fatalf("second Del = %v", r.Status)
	}
	if r, _ := eng.DoContext(ctx, Request{Op: OpPing, Val: 7}); r.Status != StatusOK || r.Val != 7 {
		t.Fatalf("Ping = %v/%d", r.Status, r.Val)
	}
	if r, _ := eng.DoContext(ctx, Request{Op: OpGet, Key: ds.KeyLimit}); r.Status != StatusBadRequest {
		t.Fatalf("Get(KeyLimit) = %v, want BAD_REQUEST", r.Status)
	}
}

// TestEngineShardDistribution checks every shard sees traffic for a dense
// key range — i.e. the shard hash actually spreads the key space.
func TestEngineShardDistribution(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(EngineConfig{Shards: 8, WorkersPerShard: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 4096; k++ {
		if _, err := eng.DoContext(ctx, Request{Op: OpPut, Key: k, Val: k}); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range eng.Stats() {
		if st.Ops < 256 { // E[ops] = 512 per shard; 256 is a loose floor
			t.Fatalf("shard %d got only %d of 4096 ops", i, st.Ops)
		}
	}
	eng.Close()
}

// TestEngineDrainLosesNothing is the shutdown/drain race test of the
// issue: submitters race Close, and every operation the engine accepted
// (SubmitRequest returned nil) must complete exactly once — none lost, none
// double-completed — even though Close lands mid-stream. Run with -race.
func TestEngineDrainLosesNothing(t *testing.T) {
	for round := 0; round < 8; round++ {
		eng, err := NewEngine(EngineConfig{
			Shards: 4, WorkersPerShard: 2, QueueDepth: 256,
			EpochFreq: 16, EmptyFreq: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		const submitters = 8
		var (
			accepted  atomic.Uint64
			completed atomic.Uint64
			rejected  atomic.Uint64
			wg        sync.WaitGroup
			release   = make(chan struct{})
		)
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				<-release
				for i := 0; ; i++ {
					key := uint64(s*100000 + i%512)
					op := OpPut
					if i%2 == 1 {
						op = OpDel
					}
					var fired atomic.Bool
					err := eng.SubmitRequest(Request{Op: op, Key: key, Val: key}, func(Response) {
						if !fired.CompareAndSwap(false, true) {
							t.Error("request completed twice")
						}
						completed.Add(1)
					})
					switch err {
					case nil:
						accepted.Add(1)
					case ErrBusy:
						rejected.Add(1)
					case ErrClosed:
						return
					default:
						t.Errorf("SubmitRequest: %v", err)
						return
					}
				}
			}(s)
		}
		close(release)
		// Let the submitters get going, then drain under them.
		for accepted.Load() < 1000 {
			runtime.Gosched()
		}
		eng.Close()
		wg.Wait()
		if completed.Load() != accepted.Load() {
			t.Fatalf("round %d: accepted %d ops but completed %d (rejected %d)",
				round, accepted.Load(), completed.Load(), rejected.Load())
		}
		// Close is idempotent and must not hang or re-drain.
		eng.Close()
	}
}

// TestEngineBusyBackpressure fills a tiny queue from a stalled shard and
// checks SubmitRequest surfaces ErrBusy rather than buffering without bound.
func TestEngineBusyBackpressure(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Shards: 1, WorkersPerShard: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Park the single worker on a request that blocks until we say so.
	gate := make(chan struct{})
	blocked := make(chan struct{})
	if err := eng.SubmitRequest(Request{Op: OpPing}, func(Response) { close(blocked); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-blocked // the worker is now inside a done callback, not popping
	sawBusy := false
	for i := 0; i < 64; i++ {
		err := eng.SubmitRequest(Request{Op: OpPing, Key: uint64(i)}, func(Response) {})
		if err == ErrBusy {
			sawBusy = true
			break
		}
		if err != nil {
			t.Fatalf("unexpected error %v", err)
		}
	}
	close(gate)
	if !sawBusy {
		t.Fatal("queue of depth 4 accepted 64 requests without ErrBusy")
	}
}

// TestEngineStats checks the metrics snapshot exposes work and epoch
// movement for an epoch-based scheme, and that /metrics agrees with it.
func TestEngineStats(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(EngineConfig{
		Structure: "hashmap", Scheme: "tagibr",
		Shards: 2, WorkersPerShard: 1, EpochFreq: 4, EmptyFreq: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 2000; k++ {
		eng.DoContext(ctx, Request{Op: OpPut, Key: k, Val: k})
		if k%2 == 0 {
			eng.DoContext(ctx, Request{Op: OpDel, Key: k})
		}
	}
	stats := eng.Stats()
	if len(stats) != 2 {
		t.Fatalf("Stats() has %d shards, want 2", len(stats))
	}
	var ops, live, scans, examined, freed uint64
	for i, st := range stats {
		if st.Epoch == 0 {
			t.Fatalf("shard %d: epoch clock did not advance: %+v", i, st)
		}
		ops, live = ops+st.Ops, live+st.Live
		scans, examined, freed = scans+st.Scan.Scans, examined+st.Scan.Scanned, freed+st.Scan.Freed
	}
	if ops == 0 || live == 0 {
		t.Fatalf("stats show no work: %+v", stats)
	}
	// A delete-heavy run with EmptyFreq 4 must have scanned retire lists and
	// freed blocks; the scan counters ride ShardStats.
	if scans == 0 || freed == 0 {
		t.Fatalf("scan stats missing: %+v", stats)
	}
	if examined < freed {
		t.Fatalf("examined %d < freed %d: scans cannot free more than they examine", examined, freed)
	}
	// /metrics is built from the same snapshot: its per-shard scan series
	// sum to the Stats totals.
	text := scrapeMetrics(t, eng)
	if got, _ := seriesSum(text, "ibr_scans_total", ""); got != float64(scans) {
		t.Fatalf("Σ ibr_scans_total = %v, want %d", got, scans)
	}
	eng.Close()
}

// scrapeMetrics renders the engine's /metrics exposition.
func scrapeMetrics(t *testing.T, eng *Engine) string {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.WriteMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// seriesSum sums every sample of the named series whose label set contains
// match (e.g. `source="expiry"`; "" matches all) and counts the samples.
func seriesSum(text, name, match string) (total float64, n int) {
	for _, line := range strings.Split(text, "\n") {
		series, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		base, labels, _ := strings.Cut(series, "{")
		if base != name || !strings.Contains(labels, match) {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		total += v
		n++
	}
	return total, n
}

// TestTrimSpill checks the worker's batch-buffer recycling stays bounded: a
// modest batch is reused, a burst-sized one is dropped so its backing array
// is not pinned for the engine's lifetime.
func TestTrimSpill(t *testing.T) {
	small := make([]request, 0, maxSpillCap)
	if got := trimSpill(small); cap(got) != maxSpillCap {
		t.Fatalf("cap-%d buffer not recycled (cap %d)", maxSpillCap, cap(got))
	}
	big := make([]request, 0, maxSpillCap+1)
	if got := trimSpill(big); got != nil {
		t.Fatalf("cap-%d buffer recycled; want dropped", cap(big))
	}
}
