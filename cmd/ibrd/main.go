// Command ibrd is the network front end over the IBR data structures: a
// sharded key-value daemon speaking the length-prefixed binary protocol of
// internal/server. Each shard is an independent (structure × scheme) pair
// with a small fixed set of scheme tids, each behind a lock: a connection
// reader runs each request itself under a tid it borrows for that request
// (a RANGE under each shard's in turn), so an unbounded population of
// connection goroutines can drive reclamation schemes that require a small
// fixed thread-id space.
//
//	ibrd -addr :4100 -http :4101 -r hashmap -d tagibr -shards 8 -workers 2
//
// SIGINT/SIGTERM drain gracefully: in-flight requests complete, responses
// flush, retire lists are scanned at quiescence, a final metrics snapshot is
// written to stderr, then the process exits. SIGQUIT writes the flight
// recorder to stderr as the same Perfetto JSON /debug/trace serves, without
// pausing or stopping the daemon. The whole daemon is run(ctx, args, ...),
// which the end-to-end test boots in-process on port 0.
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
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
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
	// The drain line names the signal, so ctx carries it as its cause.
	ctx, cancel := context.WithCancelCause(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { cancel(errors.New((<-sig).String())) }()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the daemon: it serves until ctx ends, then drains and returns 0.
// Usage errors return 2, startup failures 1.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ibrd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":4100", "TCP listen address for the KV protocol")
		httpAddr  = fs.String("http", ":4101", "HTTP listen address for /metrics, /debug/trace, /debug/pprof (empty disables)")
		structure = fs.String("r", "hashmap", "rideable: "+strings.Join(ds.MapStructures(), ", "))
		scheme    = fs.String("d", "tagibr", "reclamation scheme: "+strings.Join(core.Schemes(), ", "))
		shards    = fs.Int("shards", 8, "independent structure instances the key space is hashed across")
		workers   = fs.Int("workers", 2, "per shard: connection readers borrow -workers+1 scheme tids to run requests under")
		inflight  = fs.Int("inflight", 128, "max pipelined requests per connection")
		idle      = fs.Duration("idle", 5*time.Minute, "per-connection idle timeout")
		epochf    = fs.Int("epochf", 150, "epoch advance frequency (per-worker allocations)")
		emptyf    = fs.Int("emptyf", core.DefaultEmptyFreq, "retire-list scan frequency (retirements)")
		buckets   = fs.Int("buckets", 0, "hash map buckets per shard (0 = default)")
		poolSlots = fs.Uint64("poolslots", 0, "node pool capacity per shard (0 = default)")

		obsRing     = fs.Int("obs-ring", 4096, "flight-recorder events kept per worker ring")
		obsSample   = fs.Int("obs-sample", 64, "record every Nth retire event (1 = all)")
		obsTrace    = fs.Int("obs-trace", 64, "trace block lifecycles for every Nth pool slot (rounded to a power of two; 1 = all)")
		stallThresh = fs.Duration("stall-threshold", time.Second, "reservation age past which the watchdog raises a stall alert")
		stalled     = fs.Int("stalled", 0, "injected stalled reservation holders per shard (the paper's preempted thread; for watching reclamation lag)")
		stallFor    = fs.Duration("stallfor", 2*time.Second, "how long each injected stall pins its reservation")

		maxRange   = fs.Int("max-range", 0, "result cap per RANGE scan (0 = protocol maximum, 65536)")
		expiryGran = fs.Duration("expiry-gran", 50*time.Millisecond, "TTL expiry wheel slot width (expirations lag it by up to one remediation tick)")

		softWater  = fs.Float64("soft-watermark", 0.5, "unreclaimed fraction of pool capacity that triggers forced scans")
		hardWater  = fs.Float64("hard-watermark", 0.85, "unreclaimed fraction of pool capacity above which the shard sheds (BUSY)")
		quarAfter  = fs.Duration("quarantine-after", time.Second, "how long one park of an injected staller may pin its reservation before it is quarantined")
		remedyIntv = fs.Duration("remedy-interval", 50*time.Millisecond, "remediation loop poll period (watermarks + quarantine)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "ibrd: "+format+"\n", a...)
		return 2
	}
	if err := ds.CheckMap(*structure, *scheme); err != nil {
		return usage("%v", err)
	}
	if *softWater <= 0 || *softWater >= *hardWater || *hardWater > 1 {
		return usage("watermarks must satisfy 0 < soft < hard <= 1, got soft=%v hard=%v", *softWater, *hardWater)
	}

	cfg := server.EngineConfig{
		Structure: *structure, Scheme: *scheme,
		Shards: *shards, WorkersPerShard: *workers,
		EpochFreq: *epochf, EmptyFreq: *emptyf,
		Buckets: *buckets, PoolSlots: *poolSlots,
		Stalled: *stalled, StallFor: *stallFor,
		SoftWatermark: *softWater, HardWatermark: *hardWater,
		QuarantineAfter: *quarAfter, RemedyInterval: *remedyIntv,
		MaxRangeResults: *maxRange, ExpiryGranularity: *expiryGran,
		Obs: &obs.Options{
			RingSize:       *obsRing,
			SampleEvery:    *obsSample,
			TraceEvery:     *obsTrace,
			StallThreshold: *stallThresh,
		},
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ibrd:", err)
		return 1
	}
	// Both listeners are bound before the serving line prints, so the line
	// names the real addresses (port 0 resolves here).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	defer ln.Close()
	var hln net.Listener
	if *httpAddr != "" {
		if hln, err = net.Listen("tcp", *httpAddr); err != nil {
			return fail(err)
		}
		defer hln.Close()
	}
	eng, err := server.NewEngine(cfg)
	if err != nil {
		return fail(err)
	}
	srv := server.NewServer(eng, server.ServerConfig{MaxInflight: *inflight, IdleTimeout: *idle})

	metricsOn := "off"
	if hln != nil {
		mux := http.NewServeMux()
		mux.Handle("/metrics", server.MetricsHandler(eng, srv))
		mux.Handle("/debug/trace", server.TraceHandler(eng))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		hs := &http.Server{Handler: mux}
		httpDone := make(chan struct{})
		go func() {
			defer close(httpDone)
			if err := hs.Serve(hln); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(stderr, "ibrd: debug http:", err)
			}
		}()
		defer func() { hs.Close(); <-httpDone }()
		metricsOn = "on " + hln.Addr().String()
	}

	// SIGQUIT writes the /debug/trace document to stderr and keeps serving:
	// the ring snapshot skips torn slots rather than blocking the readers.
	quit, quitDone := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(quit, syscall.SIGQUIT)
	defer func() { signal.Stop(quit); close(quit); <-quitDone }()
	go func() {
		defer close(quitDone)
		for range quit {
			fmt.Fprintln(stderr, "ibrd: SIGQUIT — flight recorder trace")
			if err := eng.Obs().Recorder().WriteTraceJSON(stderr); err != nil {
				fmt.Fprintln(stderr, "ibrd: trace dump:", err)
			}
		}
	}()

	ec := eng.Config()
	fmt.Fprintf(stdout, "ibrd: serving %s × %s, %d shards × %d workers on %s (metrics %s)\n",
		*structure, *scheme, ec.Shards, ec.WorkersPerShard, ln.Addr(), metricsOn)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		srv.Shutdown()
		return fail(err)
	case <-ctx.Done():
		fmt.Fprintf(stdout, "ibrd: %v — draining\n", context.Cause(ctx))
		srv.Shutdown()
		ln.Close() // in case ctx ended before Serve registered ln with srv
		<-serveErr
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
	fmt.Fprintf(stdout, "ibrd: drained: %d ops served over %d connections, %d blocks unreclaimed after final scan\n",
		ops, srv.Accepted(), unreclaimed)
	if ranges+expired > 0 {
		fmt.Fprintf(stdout, "ibrd: ranges: %d shard legs scanned; expiry: %d keys lapsed\n", ranges, expired)
	}
	if quarantines+shed+deaths > 0 {
		fmt.Fprintf(stdout, "ibrd: degradation: %d tid quarantines, %d submits shed, %d execution panics\n",
			quarantines, shed, deaths)
	}
	// Final telemetry snapshot for post-mortems: the same exposition
	// /metrics served (scan phases and pinned-memory blame included), frozen
	// at quiescence.
	fmt.Fprintln(stderr, "ibrd: final metrics snapshot:")
	if err := eng.WriteMetrics(stderr, srv); err != nil {
		fmt.Fprintln(stderr, "ibrd: metrics snapshot:", err)
	}
	return 0
}
