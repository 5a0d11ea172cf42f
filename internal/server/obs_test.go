package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ibr/internal/obs"
)

// TestEngineObsConcurrentScrape is the live-telemetry race test: a loaded
// engine's /metrics encoding runs concurrently with the serving workers and
// the remediator's watchdog ticks. Run with -race — the scrape path must
// never synchronize with, pause, or corrupt the hot path.
func TestEngineObsConcurrentScrape(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(EngineConfig{
		Shards: 2, WorkersPerShard: 2, QueueDepth: 1024,
		EpochFreq: 8, EmptyFreq: 8,
		Obs:            &obs.Options{SampleEvery: 1},
		RemedyInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics := MetricsHandler(eng, nil)

	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			metrics.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if got := rec.Header().Get("Content-Type"); got != obs.ContentType {
				t.Errorf("metrics Content-Type = %q", got)
				return
			}
		}
	}()

	const producers = 4
	var loadWG sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		loadWG.Add(1)
		go func(pr int) {
			defer loadWG.Done()
			n := 8000
			if testing.Short() {
				n = 1500
			}
			for i := 0; i < n; i++ {
				key := uint64(pr*1000 + i%512)
				eng.DoContext(ctx, Request{Op: OpPut, Key: key, Val: key})
				eng.DoContext(ctx, Request{Op: OpGet, Key: key})
				eng.DoContext(ctx, Request{Op: OpDel, Key: key})
			}
		}(pr)
	}
	loadWG.Wait()
	close(stop)
	scrapeWG.Wait()

	// Final scrape: the series the observability layer exists for must be
	// present and, for a delete-heavy run, non-empty.
	var buf bytes.Buffer
	if err := eng.WriteMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, series := range []string{
		"ibr_ops_total{shard=\"0\"}",
		"ibr_unreclaimed{shard=\"0\"}",
		"ibr_epoch_lag{shard=\"1\"}",
		"ibr_retire_age_bucket{shard=\"0\",scheme=\"tagibr\",le=\"+Inf\"}",
		"ibr_op_latency_ns_bucket{op=\"put\",le=\"+Inf\"}",
		"ibr_scan_duration_ns_count{scheme=\"tagibr\"}",
		"ibr_free_batch_size_sum{scheme=\"tagibr\"}",
		"ibr_pool_cache_hits_total{shard=\"0\"}",
		"ibr_stall_alerts_total",
		"ibr_flight_events_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics output missing %s", series)
		}
	}
	if strings.Contains(text, "ibr_retire_age_count{shard=\"0\",scheme=\"tagibr\"} 0\n") &&
		strings.Contains(text, "ibr_retire_age_count{shard=\"1\",scheme=\"tagibr\"} 0\n") {
		t.Error("no retire->free ages recorded on any shard despite a delete-heavy run")
	}
	if strings.Contains(text, "ibr_op_latency_ns_count{op=\"get\"} 0\n") {
		t.Error("no get latencies recorded")
	}

	eng.Close()
	// After Close the remediator no longer ticks the watchdog; a
	// post-shutdown scrape still works.
	buf.Reset()
	if err := eng.WriteMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEngineWatchdogAlertsOnStall checks the live engine's stall watchdog
// end to end: an injected staller holds one reservation far past the
// threshold, quarantine is pushed out of reach, and the remediator's tick
// must raise the alert, hold the stalled gauge, and write a stall event to
// the flight recorder.
func TestEngineWatchdogAlertsOnStall(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Shards: 1, WorkersPerShard: 1,
		Stalled: 1, StallFor: 10 * time.Second,
		QuarantineAfter: time.Hour,
		RemedyInterval:  5 * time.Millisecond,
		Obs:             &obs.Options{StallThreshold: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var alerts, stalled float64
	if !waitFor(3*time.Second, func() bool {
		text := scrapeMetrics(t, eng)
		alerts, _ = seriesSum(text, "ibr_stall_alerts_total", "")
		stalled, _ = seriesSum(text, "ibr_stalled_reservations", "")
		return alerts >= 1 && stalled >= 1
	}) {
		t.Fatalf("3s into a 10s stall: ibr_stall_alerts_total %v, ibr_stalled_reservations %v; want both >= 1", alerts, stalled)
	}
	stalls := 0
	for _, ev := range eng.Obs().Recorder().Snapshot() {
		if ev.Kind == obs.KindStall {
			stalls++
		}
	}
	if stalls == 0 {
		t.Fatal("stall alert raised but no stall event in the flight recorder")
	}
}
