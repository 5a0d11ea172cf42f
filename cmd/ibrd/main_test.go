package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ibr/internal/harness"
	"ibr/internal/obs"
	"ibr/internal/server"
)

// legDeadline bounds each leg, boot to drain: a condition still unmet by
// then fails the leg with the last reason it was unmet.
const legDeadline = 30 * time.Second

// pollEvery is how often a leg scrapes /metrics while its load runs.
const pollEvery = 25 * time.Millisecond

// daemonLeg is one end-to-end case: ibrd booted in-process with args on
// port 0, driven by ibrload's loop with load until until holds, then
// drained; after checks what the drained daemon and the load reported.
type daemonLeg struct {
	name string
	args []string
	load harness.LoadConfig
	// until is polled against a /metrics scrape; trace fetches and caches
	// /debug/trace for this poll, so legs pay for it only once their metrics
	// conditions hold.
	until func(m obs.MetricSet, trace func() ([]byte, error)) error
	after func(d drained) error
}

// drained is what a leg's after check sees.
type drained struct {
	stdout string
	final  obs.MetricSet // the snapshot ibrd writes to stderr after the drain
	load   harness.LoadResult
}

// ibrload is ibrload's flag defaults with -c, -p and -m set.
func ibrload(conns, pipeline int, mode string) harness.LoadConfig {
	return harness.LoadConfig{
		Conns: conns, Pipeline: pipeline, Mode: mode,
		KeyRange: 65536, Prefill: 0.5, Seed: 1, Span: 1024, ZipfS: 1.07, Timeout: 2 * time.Second,
		Retry: server.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond},
	}
}

// TestDaemon is the serving layer's end-to-end suite. Each leg is named
// after the make target that runs it (make chaossmoke runs the three
// chaossmoke legs), keeps that target's ibrd flags and ibrload settings,
// and replaces its fixed sleeps with polling.
func TestDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("boots ibrd once per leg")
	}
	withTTL := ibrload(8, 4, "range")
	withTTL.Span, withTTL.TTL = 4096, 300*time.Millisecond
	noPrefill := ibrload(4, 4, "write")
	noPrefill.Prefill = 0
	legs := []daemonLeg{
		{
			// The round trip: every shard serves and exports its gauges, the
			// load exits clean, the drain reclaims everything.
			name: "loadtest",
			args: []string{"-r", "hashmap", "-d", "tagibr", "-shards", "4", "-workers", "2"},
			load: ibrload(8, 4, "write"),
			until: func(m obs.MetricSet, _ func() ([]byte, error)) error {
				for _, shard := range []string{"0", "1", "2", "3"} {
					for _, name := range []string{"ibr_ops_total", "ibr_unreclaimed", "ibr_epoch_lag"} {
						if !has(m, name, "shard", shard) {
							return fmt.Errorf("no %s{shard=%q}", name, shard)
						}
					}
				}
				return measured(m)
			},
			after: func(d drained) error { return drainedToZero(d.stdout) },
		},
		{
			// The paper-critical series are live on /metrics and /debug/trace
			// serves a Perfetto document.
			name: "obssmoke",
			args: []string{"-r", "hashmap", "-d", "tagibr", "-shards", "4", "-workers", "2"},
			load: ibrload(8, 4, "write"),
			until: func(m obs.MetricSet, trace func() ([]byte, error)) error {
				switch {
				case !has(m, "ibr_unreclaimed", "shard", "0"):
					return errors.New(`no ibr_unreclaimed{shard="0"}`)
				case !has(m, "ibr_epoch_lag", "shard", "0"):
					return errors.New(`no ibr_epoch_lag{shard="0"}`)
				case len(m["ibr_retire_age_bucket"]) == 0:
					return errors.New("no ibr_retire_age_bucket series")
				case sum(m, "ibr_retire_age_count") == 0:
					return errors.New("ibr_retire_age_count sums to 0")
				}
				if err := measured(m); err != nil {
					return err
				}
				doc, err := trace()
				if err != nil {
					return err
				}
				if !bytes.HasPrefix(doc, []byte(`{"traceEvents"`)) {
					return fmt.Errorf("/debug/trace starts %.14q, want a Perfetto document", doc)
				}
				return nil
			},
			after: func(d drained) error { return drainedToZero(d.stdout) },
		},
		chaosLeg("chaossmoke-ebr", "ebr"),
		{
			// The leak scheme on a tiny pool: exhaustion surfaces as BUSY,
			// the retrying client absorbs it, and no shard panics.
			name:  "chaossmoke-pool",
			args:  []string{"-r", "hashmap", "-d", "none", "-shards", "2", "-workers", "2", "-poolslots", "2048"},
			load:  noPrefill,
			until: counterPositive("ibr_pool_exhausted_total"),
			after: func(d drained) error {
				if d.load.Busy+d.load.Shed+d.load.Retries == 0 {
					return errors.New("the pool ran dry but no BUSY reached the client")
				}
				if n := sum(d.final, "ibr_worker_deaths_total"); n > 0 {
					return fmt.Errorf("%.0f worker deaths", n)
				}
				return nil
			},
		},
		chaosLeg("chaossmoke-debra", "debra"),
		{
			// One injected staller under traced load. With -workers 2 the
			// staller owns tid 2, and -quarantine-after 30s keeps the
			// remediator from clearing its reservation. Blame is only
			// non-empty mid-park, once blocks born before the staller's
			// reservation exist (its first park starts at boot), which is
			// what the polling waits for.
			name: "tracesmoke",
			args: []string{"-r", "hashmap", "-d", "tagibr", "-shards", "1", "-workers", "2",
				"-stalled", "1", "-stallfor", "3s", "-quarantine-after", "30s",
				"-obs-sample", "4", "-obs-trace", "4", "-obs-ring", "65536"},
			load: ibrload(4, 4, "write"),
			until: func(m obs.MetricSet, trace func() ([]byte, error)) error {
				if err := stallerBlamed(m, "2"); err != nil {
					return err
				}
				if err := measured(m); err != nil {
					return err
				}
				doc, err := trace()
				if err != nil {
					return err
				}
				return completeSpans(doc)
			},
			after: func(d drained) error {
				for _, s := range d.load.Slowest {
					if s.Trace != 0 {
						return drainedToZero(d.stdout)
					}
				}
				return errors.New("ibrload named no slowest op by trace ID")
			},
		},
		{
			// Range scans + TTL expiry on the skiplist: expirations retire
			// through the scheme (source="expiry"), unreclaimed stays
			// bounded while scans hold reservations, every scan validates.
			name: "rangesmoke",
			args: []string{"-r", "skiplist", "-d", "tagibr", "-shards", "4", "-workers", "2", "-remedy-interval", "25ms"},
			load: withTTL,
			until: func(m obs.MetricSet, _ func() ([]byte, error)) error {
				switch {
				case sum(m, "ibr_range_legs_total") == 0:
					return errors.New("no range legs")
				case sum(m, "ibr_expired_total") == 0:
					return errors.New("no TTL expirations")
				case sumWhere(m, "ibr_retired_total", "source", "user") == 0:
					return errors.New(`no ibr_retired_total{source="user"}`)
				case sumWhere(m, "ibr_retired_total", "source", "expiry") == 0:
					return errors.New(`no ibr_retired_total{source="expiry"}`)
				}
				return underScanBounded(m)
			},
			after: func(d drained) error {
				if d.load.RangeOps == 0 {
					return errors.New("no range scans validated")
				}
				if err := underScanBounded(d.final); err != nil {
					return err
				}
				return drainedToZero(d.stdout)
			},
		},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) { runLeg(t, leg) })
	}
}

// TestRunUsage: flag and configuration errors return 2, -h returns 0, and a
// listen address already in use returns 1, each without serving.
func TestRunUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-bogus"}, 2},
		{[]string{"-r", "nope"}, 2},
		{[]string{"-d", "nope"}, 2},
		{[]string{"-r", "bonsai", "-d", "hp"}, 2},
		{[]string{"-soft-watermark", "0.9"}, 2},
		{[]string{"-h"}, 0},
	} {
		var out syncBuffer
		if rc := run(context.Background(), tc.args, &out, &out); rc != tc.want {
			t.Errorf("run(%q) = %d, want %d; output:\n%s", tc.args, rc, tc.want, out.String())
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var out syncBuffer
	if rc := run(context.Background(), []string{"-addr", ln.Addr().String(), "-http", ""}, &out, &out); rc != 1 {
		t.Errorf("run on a taken address = %d, want 1; output:\n%s", rc, out.String())
	}
}

// chaosLeg is a degradation leg: injected stallers pin reservations for 3s
// against a 300ms quarantine threshold. Tids must be quarantined mid-stall
// (under debra a real DEBRA+ neutralization: reservation cleared, the flag
// latched for the staller's next StartOp), and the drain must still reach 0
// unreclaimed blocks with stalls in flight when it lands.
func chaosLeg(name, scheme string) daemonLeg {
	return daemonLeg{
		name: name,
		args: []string{"-r", "hashmap", "-d", scheme, "-shards", "2", "-workers", "2",
			"-stalled", "2", "-stallfor", "3s", "-quarantine-after", "300ms", "-remedy-interval", "25ms"},
		load:  ibrload(4, 4, "write"),
		until: counterPositive("ibr_tid_quarantines_total"),
		after: func(d drained) error {
			if !regexp.MustCompile(`degradation: .* tid quarantines`).MatchString(d.stdout) {
				return errors.New("no degradation line in the drain summary")
			}
			return drainedToZero(d.stdout)
		},
	}
}

// runLeg boots ibrd, drives the leg, and checks it. t.Cleanup stops the
// load and cancels the daemon whatever happens, and waits for both, so a
// failed leg never leaks a daemon into the next one.
func runLeg(t *testing.T, leg daemonLeg) {
	deadline := time.Now().Add(legDeadline)
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr syncBuffer
	var rc int
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		rc = run(ctx, append(leg.args, "-addr", "127.0.0.1:0", "-http", "127.0.0.1:0"), &stdout, &stderr)
	}()
	t.Cleanup(func() { cancel(); <-exited })

	serving := regexp.MustCompile(`serving .* on (\S+) \(metrics on (\S+)\)`)
	var kvAddr, base string
	for kvAddr == "" {
		select {
		case <-exited:
			t.Fatalf("ibrd exited with %d before serving:\n%s", rc, stderr.String())
		case <-time.After(pollEvery):
		}
		if m := serving.FindStringSubmatch(stdout.String()); m != nil {
			kvAddr, base = m[1], "http://"+m[2]
		} else if time.Now().After(deadline) {
			t.Fatal("ibrd printed no serving line")
		}
	}
	client := &http.Client{Timeout: 10 * time.Second}
	if _, err := get(client, base+"/debug/pprof/"); err != nil {
		t.Fatal(err)
	}

	cfg := leg.load
	cfg.Addr = kvAddr
	loadCtx, stopLoad := context.WithCancel(context.Background())
	var (
		res     harness.LoadResult
		loadErr error
	)
	loaded := make(chan struct{})
	go func() {
		defer close(loaded)
		res, loadErr = harness.Load(loadCtx, cfg)
	}()
	t.Cleanup(func() { stopLoad(); <-loaded })

	unmet := errors.New("not polled yet")
	for unmet != nil {
		select {
		case <-loaded:
			t.Fatalf("load ended before the condition held (%v; load error %v, transport error %v)", unmet, loadErr, res.Err)
		case <-exited:
			t.Fatalf("ibrd exited with %d mid-load:\n%s", rc, stderr.String())
		case <-time.After(pollEvery):
		}
		if unmet = poll(client, base, leg.until); unmet != nil && time.Now().After(deadline) {
			t.Fatalf("condition unmet after %v: %v", legDeadline, unmet)
		}
	}
	stopLoad()
	<-loaded
	cancel()
	<-exited

	if loadErr != nil || res.Err != nil || res.ProtoErrs > 0 || res.Ops() == 0 {
		t.Fatalf("load: error %v, %d protocol errors, first transport error %v, %d ops", loadErr, res.ProtoErrs, res.Err, res.Ops())
	}
	if rc != 0 {
		t.Fatalf("ibrd returned %d:\n%s", rc, stderr.String())
	}
	_, snap, ok := strings.Cut(stderr.String(), "ibrd: final metrics snapshot:\n")
	if !ok {
		t.Fatalf("no final metrics snapshot on stderr:\n%s", stderr.String())
	}
	final, err := obs.ParseMetrics(strings.NewReader(snap))
	if err != nil {
		t.Fatalf("final metrics snapshot: %v", err)
	}
	if err := leg.after(drained{stdout: stdout.String(), final: final, load: res}); err != nil {
		t.Fatalf("%v\nibrd stdout:\n%s", err, stdout.String())
	}
}

// poll scrapes /metrics once and evaluates until against it.
func poll(client *http.Client, base string, until func(obs.MetricSet, func() ([]byte, error)) error) error {
	body, err := get(client, base+"/metrics")
	if err != nil {
		return err
	}
	m, err := obs.ParseMetrics(bytes.NewReader(body))
	if err != nil {
		return err
	}
	var doc []byte
	trace := func() ([]byte, error) {
		if doc == nil {
			doc, err = get(client, base+"/debug/trace")
		}
		return doc, err
	}
	return until(m, trace)
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, err
}

// measured holds once the load is past its prefill (which only PUTs): the
// servers have executed DELs.
func measured(m obs.MetricSet) error {
	if m.Value("ibr_op_latency_ns_count", map[string]string{"op": "del"}) == 0 {
		return errors.New("measured load has not started (no DEL executed)")
	}
	return nil
}

// counterPositive is a leg condition: name sums above zero over its
// members, with the measured load running.
func counterPositive(name string) func(obs.MetricSet, func() ([]byte, error)) error {
	return func(m obs.MetricSet, _ func() ([]byte, error)) error {
		if sum(m, name) == 0 {
			return fmt.Errorf("%s sums to 0", name)
		}
		return measured(m)
	}
}

func has(m obs.MetricSet, name, label, value string) bool {
	return len(filter(m, name, label, value)) > 0
}

func filter(m obs.MetricSet, name, label, value string) []obs.Sample {
	var out []obs.Sample
	for _, s := range m[name] {
		if s.Labels[label] == value {
			out = append(out, s)
		}
	}
	return out
}

func sum(m obs.MetricSet, name string) float64 {
	var n float64
	for _, s := range m[name] {
		n += s.Value
	}
	return n
}

func sumWhere(m obs.MetricSet, name, label, value string) float64 {
	var n float64
	for _, s := range filter(m, name, label, value) {
		n += s.Value
	}
	return n
}

// underScanBounded: retired-but-unreclaimed sampled while range scans held
// reservations stays within 8192 blocks on every shard.
func underScanBounded(m obs.MetricSet) error {
	for _, s := range m["ibr_unreclaimed_under_scan"] {
		if s.Value > 8192 {
			return fmt.Errorf("ibr_unreclaimed_under_scan{shard=%q} = %.0f, bound 8192", s.Labels["shard"], s.Value)
		}
	}
	return nil
}

// stallerBlamed: ibr_pinned_blocks charges the staller's tid more than zero
// blocks and more than any other tid.
func stallerBlamed(m obs.MetricSet, staller string) error {
	pinned := map[string]float64{}
	for _, s := range m["ibr_pinned_blocks"] {
		pinned[s.Labels["tid"]] += s.Value
	}
	if pinned[staller] <= 0 {
		return fmt.Errorf("staller tid %s pins nothing; table %v", staller, pinned)
	}
	for tid, n := range pinned {
		if tid != staller && n >= pinned[staller] {
			return fmt.Errorf("tid %s pins %.0f blocks, the staller tid %s %.0f", tid, n, staller, pinned[staller])
		}
	}
	return nil
}

// completeSpans: the /debug/trace document parses, holds events, at least
// one traced block completed alloc→retire→free (a "live" slice and an
// untruncated "retired" slice on the same blocks-process track, pid 2), and
// at least one wire-propagated op slice (rings process, pid 1) carries a
// non-zero trace ID.
func completeSpans(doc []byte) error {
	var tr struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Pid  int
			Tid  uint64
			Args struct {
				Truncated bool   `json:"truncated"`
				TraceID   string `json:"trace_id"`
			}
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &tr); err != nil {
		return fmt.Errorf("/debug/trace is not JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		return errors.New("/debug/trace has no traceEvents")
	}
	lives, completes := map[uint64]bool{}, map[uint64]bool{}
	full, ops := 0, 0
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Ph != "X":
		case ev.Pid == 2 && ev.Name == "live":
			lives[ev.Tid] = true
		case ev.Pid == 2 && ev.Name == "retired" && !ev.Args.Truncated:
			completes[ev.Tid] = true
		case ev.Pid == 1 && ev.Name == "op":
			if id, _ := strconv.ParseUint(strings.TrimPrefix(ev.Args.TraceID, "0x"), 16, 64); id != 0 {
				ops++
			}
		}
	}
	for slot := range completes {
		if lives[slot] {
			full++
		}
	}
	if full == 0 {
		return fmt.Errorf("no complete alloc→retire→free span (live slices on %d slots, complete retired on %d)", len(lives), len(completes))
	}
	if ops == 0 {
		return errors.New("no op spans carrying a wire trace ID")
	}
	return nil
}

// drainedToZero: the drain summary reports every retired block reclaimed.
func drainedToZero(stdout string) error {
	if !strings.Contains(stdout, " 0 blocks unreclaimed after final scan") {
		return errors.New("drain left blocks unreclaimed")
	}
	return nil
}

// syncBuffer is an io.Writer the daemon writes while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
