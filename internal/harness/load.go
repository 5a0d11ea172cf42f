package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ibr/internal/obs"
	"ibr/internal/server"
)

// LoadConfig is one run of the serving layer's load generator (cmd/ibrload;
// its flags map one to one onto these fields): Conns connections with
// Pipeline closed-loop issuers each, so every connection keeps Pipeline
// requests in flight.
type LoadConfig struct {
	Addr     string        // ibrd's KV address
	Conns    int           // client connections (-c)
	Pipeline int           // issuers per connection (-p)
	Duration time.Duration // measured run time; 0 runs until ctx ends (-i)
	Mode     string        // write, read, zipf, rmw or range (-m)
	KeyRange uint64        // keys drawn from [0, KeyRange) (-range)
	Prefill  float64       // fraction of the key range PUT before timing
	Seed     int64
	TTL      time.Duration // armed on every PUT; 0 = no expiry
	Span     uint64        // keys covered by each RANGE scan
	ZipfS    float64       // Zipf skew s > 1 (zipf mode)
	Timeout  time.Duration // per-operation deadline; 0 disables
	Retry    server.RetryPolicy
}

// Validate reports a configuration Load would refuse, phrased in
// ibrload's flags.
func (c LoadConfig) Validate() error {
	switch {
	case c.Mode != "write" && c.Mode != "read" && c.Mode != "zipf" && c.Mode != "rmw" && c.Mode != "range":
		return fmt.Errorf("unknown mode %q; valid: write, read, zipf, rmw, range", c.Mode)
	case c.Conns < 1 || c.Pipeline < 1:
		return fmt.Errorf("-c and -p must be at least 1, got %d and %d", c.Conns, c.Pipeline)
	case c.KeyRange == 0:
		return errors.New("-range must be positive")
	case c.Mode == "zipf" && c.ZipfS <= 1:
		return errors.New("-zipf-s must be > 1")
	case c.Mode == "range" && c.Span == 0:
		return errors.New("-span must be positive in range mode")
	}
	return nil
}

// ErrRangeUnsupported is LoadResult.Err when the server answered a RANGE
// with StatusUnsupported: its structure has no ordered scan.
var ErrRangeUnsupported = errors.New("server structure does not support RANGE (run ibrd with -r skiplist)")

// SlowOp is the slowest request of one one-second window and the wire trace
// ID it carried.
type SlowOp struct {
	Lat   time.Duration
	Trace uint64
}

// LoadResult is what one Load measured. Latencies are in nanoseconds, one
// histogram per request class: a write's retire/scan work and a range's
// interval-length reservation ride their latency tails, so mixing the
// classes would hide exactly the effects the reclamation schemes differ in.
type LoadResult struct {
	Elapsed                    time.Duration
	Read, Write, Range, RMW    obs.HistSnapshot // GET, PUT/DEL, RANGE, composite rmw
	OK, NotFound, Exists, Busy uint64
	Shed, Timeouts             uint64 // non-fatal: retries exhausted / deadline hit
	Retries                    uint64 // BUSY re-submissions by the clients
	ProtoErrs                  uint64 // statuses other than OK/NOT_FOUND/EXISTS/BUSY
	RangeOps, RangePairs       uint64 // validated scans and the pairs they returned
	Slowest                    []SlowOp
	Err                        error // first transport or scan-validation error
}

// Ops is the number of measured operations.
func (r *LoadResult) Ops() uint64 {
	return r.Read.Count + r.Write.Count + r.Range.Count + r.RMW.Count
}

// issuer is one closed loop's accumulators.
type issuer struct {
	read, write, rng, rmw      obs.Hist
	ok, notFound, exists, busy uint64
	protoErr, shed, timeouts   uint64
	rangeOps, rangePairs       uint64
	slow                       []SlowOp
	err                        error
}

// Load dials cfg.Addr, prefills, then drives the measured workload until
// cfg.Duration passes, ctx ends, or every issuer has stopped on an error.
// Every measured request carries a unique wire trace ID, and every RANGE
// response is validated. The error is for a run that could not start
// (invalid configuration, dial, prefill); failures during the run land in
// LoadResult.Err and ProtoErrs.
func Load(ctx context.Context, cfg LoadConfig) (LoadResult, error) {
	if err := cfg.Validate(); err != nil {
		return LoadResult{}, err
	}
	// WithRetry folds the busy-retry loop into the client itself: every
	// DoContext retries BUSY under the policy, and exhaustion surfaces as an
	// ErrBusy-wrapping error.
	clients := make([]*server.Client, cfg.Conns)
	for i := range clients {
		cl, err := server.Dial(cfg.Addr, server.WithRetry(cfg.Retry))
		if err != nil {
			return LoadResult{}, fmt.Errorf("dial %s: %w", cfg.Addr, err)
		}
		defer cl.Close()
		if err := cl.PingContext(ctx); err != nil {
			return LoadResult{}, err
		}
		clients[i] = cl
	}
	if cfg.Prefill > 0 {
		if err := prefill(ctx, clients[0], cfg); err != nil {
			return LoadResult{}, fmt.Errorf("prefill: %w", err)
		}
	}

	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}
	var (
		wg   sync.WaitGroup
		outs = make([]issuer, cfg.Conns*cfg.Pipeline)
	)
	start := time.Now()
	for slot := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[slot].run(ctx, clients[slot/cfg.Pipeline], slot, &cfg, start)
		}()
	}
	wg.Wait()

	res := LoadResult{Elapsed: time.Since(start)}
	for i := range outs {
		o := &outs[i]
		res.Read.Merge(o.read.Snapshot())
		res.Write.Merge(o.write.Snapshot())
		res.Range.Merge(o.rng.Snapshot())
		res.RMW.Merge(o.rmw.Snapshot())
		res.OK += o.ok
		res.NotFound += o.notFound
		res.Exists += o.exists
		res.Busy += o.busy
		res.ProtoErrs += o.protoErr
		res.Shed += o.shed
		res.Timeouts += o.timeouts
		res.RangeOps += o.rangeOps
		res.RangePairs += o.rangePairs
		for w, s := range o.slow {
			for len(res.Slowest) <= w {
				res.Slowest = append(res.Slowest, SlowOp{})
			}
			if s.Lat > res.Slowest[w].Lat {
				res.Slowest[w] = s
			}
		}
		if o.err != nil && res.Err == nil {
			res.Err = o.err
		}
	}
	for _, cl := range clients {
		res.Retries += cl.Retries()
	}
	return res, nil
}

// count tallies one response status.
func (o *issuer) count(st server.Status) {
	switch st {
	case server.StatusOK:
		o.ok++
	case server.StatusNotFound:
		o.notFound++
	case server.StatusExists:
		o.exists++
	case server.StatusBusy:
		o.busy++
	default:
		o.protoErr++
	}
}

// fatal classifies one call's error: overload outcomes are part of the
// measurement (a server shedding load answers BUSY past the retry budget,
// and a deadline can expire while backing off); only transport errors
// abort the issuer.
func (o *issuer) fatal(err error) bool {
	switch {
	case errors.Is(err, server.ErrBusy):
		o.shed++
		return false
	case errors.Is(err, context.DeadlineExceeded):
		o.timeouts++
		return false
	default:
		o.err = err
		return true
	}
}

// run is one closed-loop issuer: it keeps exactly one request of the
// workload mix in flight on cl until ctx ends or a fatal error. Requests
// carry ctx's values but not its cancellation, so ending the run never
// turns an in-flight request into an error.
func (o *issuer) run(ctx context.Context, cl *server.Client, slot int, cfg *LoadConfig, start time.Time) {
	opCtx := context.WithoutCancel(ctx)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(slot)*7919 + 1))
	var zipf *rand.Zipf
	if cfg.Mode == "zipf" {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, cfg.KeyRange-1)
	}
	var seq uint64
	for ctx.Err() == nil {
		key := rng.Uint64() % cfg.KeyRange
		// Trace IDs are slot<<32|seq: unique across the run, and a hex ID
		// read off ibrload's summary decodes by eye back to its issuer.
		seq++
		trace := uint64(slot+1)<<32 | seq
		rctx := server.WithTraceID(opCtx, trace)
		cancel := context.CancelFunc(func() {})
		if cfg.Timeout > 0 {
			rctx, cancel = context.WithTimeout(rctx, cfg.Timeout)
		}

		var (
			req  server.Request
			hist *obs.Hist
		)
		switch cfg.Mode {
		case "write":
			req, hist = writeOp(rng, key, cfg.TTL), &o.write
		case "read", "zipf":
			if zipf != nil {
				key = zipf.Uint64()
			}
			switch r := rng.Intn(100); {
			case r < 90:
				req, hist = server.Request{Op: server.OpGet, Key: key}, &o.read
			case r < 95:
				req, hist = server.Request{Op: server.OpPut, Key: key, Val: key*2 + 1, TTL: cfg.TTL}, &o.write
			default:
				req, hist = server.Request{Op: server.OpDel, Key: key}, &o.write
			}
		case "range":
			if rng.Intn(8) == 0 {
				hi := key + cfg.Span - 1
				if hi < key { // wrapped
					hi = ^uint64(0)
				}
				req, hist = server.Request{Op: server.OpRange, Key: key, KeyHi: hi, TraceID: trace}, &o.rng
			} else {
				req, hist = writeOp(rng, key, cfg.TTL), &o.write
			}
		case "rmw":
			ok := o.rmwOp(rctx, cl, key, trace, cfg.TTL)
			cancel()
			if !ok {
				return
			}
			continue
		}

		t0 := time.Now()
		resp, err := cl.DoContext(rctx, req)
		cancel()
		if err != nil {
			if o.fatal(err) {
				return
			}
			continue
		}
		lat := time.Since(t0)
		hist.Record(uint64(lat))
		if req.Op == server.OpRange && !o.checkRange(req, resp) {
			return
		}
		if w := int(t0.Sub(start) / time.Second); w >= 0 {
			for len(o.slow) <= w {
				o.slow = append(o.slow, SlowOp{})
			}
			if lat > o.slow[w].Lat {
				o.slow[w] = SlowOp{Lat: lat, Trace: trace}
			}
		}
		o.count(resp.Status)
	}
}

// rmwOp is one composite read-modify-write: GET, then DEL+PUT of value+1
// (Put is insert-if-absent, so the modify step is a delete-then-insert
// pair), timed as one operation. It reports false on a fatal error.
func (o *issuer) rmwOp(ctx context.Context, cl *server.Client, key, trace uint64, ttl time.Duration) bool {
	t0 := time.Now()
	g, err := cl.DoContext(ctx, server.Request{Op: server.OpGet, Key: key, TraceID: trace})
	if err != nil {
		return !o.fatal(err)
	}
	newVal := uint64(1)
	if g.Status == server.StatusOK {
		newVal = g.Val + 1
		if _, err := cl.DoContext(ctx, server.Request{Op: server.OpDel, Key: key, TraceID: trace}); err != nil {
			return !o.fatal(err)
		}
	}
	p, err := cl.DoContext(ctx, server.Request{Op: server.OpPut, Key: key, Val: newVal, TTL: ttl, TraceID: trace})
	if err != nil {
		return !o.fatal(err)
	}
	o.count(p.Status)
	o.rmw.Record(uint64(time.Since(t0)))
	return true
}

// checkRange validates one scan: strictly ascending (sorted, no duplicates)
// and inside the requested interval. A violation means the fan-out merge or
// a shard leg is broken; it stops the issuer with the reason in o.err. Only
// an OK answer is a scan: a refused RANGE (BUSY, say) carries no pairs and
// counts toward neither RangeOps nor RangePairs.
func (o *issuer) checkRange(req server.Request, resp server.Response) bool {
	if resp.Status == server.StatusUnsupported {
		o.err = ErrRangeUnsupported
		return false
	}
	if resp.Status != server.StatusOK {
		return true
	}
	for i, p := range resp.Pairs {
		if p.Key < req.Key || p.Key > req.KeyHi {
			o.err = fmt.Errorf("RANGE [%d,%d] returned out-of-bounds key %d", req.Key, req.KeyHi, p.Key)
			return false
		}
		if i > 0 && p.Key <= resp.Pairs[i-1].Key {
			o.err = fmt.Errorf("RANGE [%d,%d] not strictly ascending at pair %d (%d after %d)", req.Key, req.KeyHi, i, p.Key, resp.Pairs[i-1].Key)
			return false
		}
	}
	o.rangeOps++
	o.rangePairs += uint64(len(resp.Pairs))
	return true
}

// writeOp picks one 50/50 PUT/DEL request.
func writeOp(rng *rand.Rand, key uint64, ttl time.Duration) server.Request {
	if rng.Intn(2) == 0 {
		return server.Request{Op: server.OpDel, Key: key}
	}
	return server.Request{Op: server.OpPut, Key: key, Val: key*2 + 1, TTL: ttl}
}

// prefill PUTs ~cfg.Prefill of the key range through one client, fanning
// the round trips out over a small issuer pool so a large range loads
// quickly; it stops feeding early once ctx ends. On failure the issuers
// keep draining the feed (without issuing) so the feeder can never block on
// a dead pool.
func prefill(ctx context.Context, cl *server.Client, cfg LoadConfig) error {
	opCtx := context.WithoutCancel(ctx)
	const issuers = 32
	var (
		keys  = make(chan uint64, issuers)
		wg    sync.WaitGroup
		first atomic.Pointer[error]
	)
	for i := 0; i < issuers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				if first.Load() != nil {
					continue
				}
				r, err := cl.Put(opCtx, k, k*2+1, cfg.TTL)
				if err == nil && r.Status != server.StatusOK && r.Status != server.StatusExists {
					err = fmt.Errorf("prefill PUT %d: %v", k, r.Status)
				}
				if err != nil {
					first.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for k := uint64(0); k < cfg.KeyRange && ctx.Err() == nil; k++ {
		if rng.Float64() < cfg.Prefill {
			keys <- k
		}
	}
	close(keys)
	wg.Wait()
	if err := first.Load(); err != nil {
		return *err
	}
	return nil
}
