// Command ibrd is the network front end over the IBR data structures: a
// sharded key-value daemon speaking the length-prefixed binary protocol of
// internal/server. Each shard is an independent (structure × scheme) pair
// served by a pool of tid-leased workers, so an unbounded population of
// connection goroutines can drive reclamation schemes that require a small
// fixed thread-id space.
//
//	ibrd -addr :4100 -http :4101 -r hashmap -d tagibr -shards 8 -workers 2
//
// SIGINT/SIGTERM drain gracefully: in-flight requests complete, responses
// flush, retire lists are scanned at quiescence, a final metrics snapshot is
// written to stderr, then the process exits. SIGQUIT writes the flight
// recorder to stderr as the same Perfetto JSON /debug/trace serves, without
// pausing or stopping the daemon.
//
// The HTTP side serves /metrics (Prometheus text format, the one metrics
// surface: per-shard throughput, queue depth, retired-but-unreclaimed, epoch
// lag, range and TTL activity, retire→free age histograms, op latency,
// stall-watchdog alerts, scan-phase breakdown, pinned-memory blame,
// connection counters), /debug/trace (the SMR lifecycle events as a
// Perfetto/chrome://tracing JSON timeline, the one event export), and
// net/http/pprof under /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ibr/internal/core"
	"ibr/internal/ds"
	"ibr/internal/obs"
	"ibr/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":4100", "TCP listen address for the KV protocol")
		httpAddr  = flag.String("http", ":4101", "HTTP listen address for /metrics, /debug/trace, /debug/pprof (empty disables)")
		structure = flag.String("r", "hashmap", "rideable: "+strings.Join(ds.MapStructures(), ", "))
		scheme    = flag.String("d", "tagibr", "reclamation scheme: "+strings.Join(core.Schemes(), ", "))
		shards    = flag.Int("shards", 8, "independent structure instances the key space is hashed across")
		workers   = flag.Int("workers", 2, "tid-leased worker goroutines per shard")
		queue     = flag.Int("queue", 4096, "per-shard request queue depth (beyond it clients see BUSY)")
		inflight  = flag.Int("inflight", 128, "max pipelined requests per connection")
		idle      = flag.Duration("idle", 5*time.Minute, "per-connection idle timeout")
		epochf    = flag.Int("epochf", 150, "epoch advance frequency (per-worker allocations)")
		emptyf    = flag.Int("emptyf", 30, "retire-list scan frequency (retirements)")
		buckets   = flag.Int("buckets", 0, "hash map buckets per shard (0 = default)")
		poolSlots = flag.Uint64("poolslots", 0, "node pool capacity per shard (0 = default)")

		obsRing     = flag.Int("obs-ring", 4096, "flight-recorder events kept per worker ring")
		obsSample   = flag.Int("obs-sample", 64, "record every Nth retire event (1 = all)")
		obsTrace    = flag.Int("obs-trace", 64, "trace block lifecycles for every Nth pool slot (rounded to a power of two; 1 = all)")
		stallThresh = flag.Duration("stall-threshold", time.Second, "reservation age past which the watchdog raises a stall alert")
		stalled     = flag.Int("stalled", 0, "injected stalled reservation holders per shard (the paper's preempted thread; for watching reclamation lag)")
		stallFor    = flag.Duration("stallfor", 2*time.Second, "how long each injected stall pins its reservation")

		maxRange   = flag.Int("max-range", 0, "result cap per RANGE scan (0 = protocol maximum, 65536)")
		expiryGran = flag.Duration("expiry-gran", 50*time.Millisecond, "TTL expiry wheel slot width (expirations lag it by up to one remediation tick)")

		softWater  = flag.Float64("soft-watermark", 0.5, "unreclaimed fraction of pool capacity that triggers forced scans")
		hardWater  = flag.Float64("hard-watermark", 0.85, "unreclaimed fraction of pool capacity above which the shard sheds (BUSY)")
		quarAfter  = flag.Duration("quarantine-after", time.Second, "how long a parked lease holder's reservation may sit before its tid is quarantined")
		remedyIntv = flag.Duration("remedy-interval", 50*time.Millisecond, "remediation loop poll period (watermarks + quarantine)")
		spares     = flag.Int("spares", 2, "spare scheme tids per shard for replacement workers after a quarantine")
	)
	flag.Parse()

	if !ds.IsMapStructure(*structure) {
		fmt.Fprintf(os.Stderr, "ibrd: unknown structure %q; valid: %s\n",
			*structure, strings.Join(ds.MapStructures(), ", "))
		os.Exit(2)
	}
	if !core.IsScheme(*scheme) {
		fmt.Fprintf(os.Stderr, "ibrd: unknown scheme %q; valid: %s\n",
			*scheme, strings.Join(core.Schemes(), ", "))
		os.Exit(2)
	}
	if !ds.SchemeSupports(*scheme, *structure) {
		fmt.Fprintf(os.Stderr, "ibrd: scheme %q cannot run structure %q\n", *scheme, *structure)
		os.Exit(2)
	}
	if *softWater <= 0 || *softWater >= *hardWater || *hardWater > 1 {
		fmt.Fprintf(os.Stderr, "ibrd: watermarks must satisfy 0 < soft < hard <= 1, got soft=%v hard=%v\n",
			*softWater, *hardWater)
		os.Exit(2)
	}
	if *spares < 1 {
		fmt.Fprintf(os.Stderr, "ibrd: -spares must be at least 1 (replacement workers draw from them), got %d\n", *spares)
		os.Exit(2)
	}

	cfg := server.EngineConfig{
		Structure: *structure, Scheme: *scheme,
		Shards: *shards, WorkersPerShard: *workers, QueueDepth: *queue,
		EpochFreq: *epochf, EmptyFreq: *emptyf,
		Buckets: *buckets, PoolSlots: *poolSlots,
		Stalled: *stalled, StallFor: *stallFor,
		SoftWatermark: *softWater, HardWatermark: *hardWater,
		QuarantineAfter: *quarAfter, RemedyInterval: *remedyIntv,
		SpareTids:       *spares,
		MaxRangeResults: *maxRange, ExpiryGranularity: *expiryGran,
		Obs: &obs.Options{
			RingSize:       *obsRing,
			SampleEvery:    *obsSample,
			TraceEvery:     *obsTrace,
			StallThreshold: *stallThresh,
		},
	}
	eng, err := server.NewEngine(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibrd:", err)
		os.Exit(1)
	}
	srv := server.NewServer(eng, server.ServerConfig{MaxInflight: *inflight, IdleTimeout: *idle})

	if *httpAddr != "" {
		// Importing net/http/pprof registers /debug/pprof on the default mux;
		// /metrics and the trace ride alongside.
		http.Handle("/metrics", server.MetricsHandler(eng, srv))
		http.Handle("/debug/trace", server.TraceHandler(eng))
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "ibrd: debug http:", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// SIGQUIT: write the /debug/trace document to stderr and keep serving.
	// The snapshot reads the rings without synchronizing with the workers,
	// so a dump under full load is safe (torn slots are skipped, not blocked
	// on).
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			fmt.Fprintln(os.Stderr, "ibrd: SIGQUIT — flight recorder trace")
			if err := eng.Obs().Recorder().WriteTraceJSON(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "ibrd: trace dump:", err)
			}
		}
	}()

	serveErr := make(chan error, 1)
	go func() {
		fmt.Printf("ibrd: serving %s × %s, %d shards × %d workers on %s (metrics on %s)\n",
			*structure, *scheme, *shards, *workers, *addr, *httpAddr)
		serveErr <- srv.ListenAndServe(*addr)
	}()

	select {
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(os.Stderr, "ibrd:", err)
			os.Exit(1)
		}
	case s := <-sig:
		fmt.Printf("ibrd: %v — draining\n", s)
		srv.Shutdown()
	}

	var ops, quarantines, shed, deaths, ranges, expired uint64
	var unreclaimed int
	for _, st := range eng.Stats() {
		ops += st.Ops
		unreclaimed += st.Unreclaimed
		quarantines += st.Quarantines
		shed += st.Shed
		deaths += st.Deaths
		ranges += st.RangeOps
		expired += st.Expired
	}
	fmt.Printf("ibrd: drained: %d ops served over %d connections, %d blocks unreclaimed after final scan\n",
		ops, srv.Accepted(), unreclaimed)
	if ranges+expired > 0 {
		fmt.Printf("ibrd: ranges: %d shard legs scanned; expiry: %d keys lapsed\n", ranges, expired)
	}
	if quarantines+shed+deaths > 0 {
		fmt.Printf("ibrd: degradation: %d tid quarantines, %d submits shed, %d worker deaths\n",
			quarantines, shed, deaths)
	}
	// Final telemetry snapshot for post-mortems: the same exposition
	// /metrics served (scan phases and pinned-memory blame included), frozen
	// at quiescence.
	fmt.Fprintln(os.Stderr, "ibrd: final metrics snapshot:")
	if err := eng.WriteMetrics(os.Stderr, srv); err != nil {
		fmt.Fprintln(os.Stderr, "ibrd: metrics snapshot:", err)
	}
}
