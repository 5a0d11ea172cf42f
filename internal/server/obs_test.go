package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ibr/internal/obs"
)

// TestEngineObsConcurrentScrape is the live-telemetry race test: a loaded
// engine is scraped (/metrics encoding and a flight-recorder JSONL dump)
// concurrently with the serving workers. Run with -race — the scrape paths
// must never synchronize with, pause, or corrupt the hot path.
func TestEngineObsConcurrentScrape(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(EngineConfig{
		Shards: 2, WorkersPerShard: 2, QueueDepth: 1024,
		EpochFreq: 8, EmptyFreq: 8,
		Obs: &obs.Options{SampleEvery: 1, WatchInterval: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics := MetricsHandler(eng, nil)
	flight := FlightRecorderHandler(eng)

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
			rec = httptest.NewRecorder()
			flight.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
			if rec.Code != 200 {
				t.Errorf("flight recorder status = %d", rec.Code)
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

	// The JSONL dump decodes line by line: a header, then events with known
	// kinds, all while the recorder kept running.
	rec := httptest.NewRecorder()
	flight.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if lines == 0 {
			if m["kind"] != "header" {
				t.Fatalf("first line kind = %v, want header", m["kind"])
			}
		} else if m["kind"] == "" || m["kind"] == "unknown" {
			t.Fatalf("line %d has kind %q", lines, m["kind"])
		}
		lines++
	}
	if lines < 2 {
		t.Fatalf("flight dump has %d lines; want header + events", lines)
	}

	if eng.Obs().Watchdog() == nil {
		t.Fatal("tagibr engine should have a watchdog (clock + reservations exposed)")
	}
	eng.Close()
	// After Close the watchdog is stopped; a post-shutdown scrape still works.
	buf.Reset()
	if err := eng.WriteMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEngineObsDisabled checks the nil path: no obs config, handlers still
// serve the stats-derived series, and the flight recorder 404s.
func TestEngineObsDisabled(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(EngineConfig{Shards: 1, WorkersPerShard: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.DoContext(ctx, Request{Op: OpPut, Key: 1, Val: 1})

	var buf bytes.Buffer
	if err := eng.WriteMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "ibr_ops_total{shard=\"0\"}") {
		t.Error("stats series missing with obs disabled")
	}
	if strings.Contains(text, "ibr_retire_age") {
		t.Error("histogram series present with obs disabled")
	}

	rec := httptest.NewRecorder()
	FlightRecorderHandler(eng).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
	if rec.Code != 404 {
		t.Errorf("flight recorder with obs disabled: status %d, want 404", rec.Code)
	}
}
