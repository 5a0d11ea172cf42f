package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ibr/internal/ds"
	"ibr/internal/obs"
	"ibr/internal/server"
)

// ibrdConfig is the engine ibrd builds from its default flags: tagibr,
// 8 shards × 2 workers, queue 4096, observability on with its defaults.
// It is spelled out rather than read from ibrd so the yardstick does not
// move when ibrd's defaults do.
func ibrdConfig(structure string) server.EngineConfig {
	return server.EngineConfig{
		Structure: structure, Scheme: "tagibr",
		Shards: 8, WorkersPerShard: 2, QueueDepth: 4096,
		EpochFreq: 150, EmptyFreq: 30,
		StallFor:      2 * time.Second,
		SoftWatermark: 0.5, HardWatermark: 0.85,
		QuarantineAfter: time.Second, RemedyInterval: 50 * time.Millisecond,
		SpareTids:         2,
		ExpiryGranularity: 50 * time.Millisecond,
		Obs: &obs.Options{
			RingSize: 4096, SampleEvery: 64, TraceEvery: 64,
			StallThreshold: time.Second,
		},
	}
}

// ibrdServer is ibrd's default -inflight and -idle.
var ibrdServer = server.ServerConfig{MaxInflight: 128, IdleTimeout: 5 * time.Minute}

// engineSys is a served pass: an in-process Engine, driven either directly
// through SubmitRequest (levelEngine) or through Clients dialed to a Server
// on 127.0.0.1 (levelWire).
type engineSys struct {
	w        *workload
	eng      *server.Engine
	srv      *server.Server
	served   chan error
	clients  []*server.Client
	waits    []engineWait
	refusals atomic.Uint64 // engine level: SubmitRequest errors
}

// engineWait is one engine-level caller's completion slot. done is built
// once per caller; it stamps the completion before handing the response
// over, so the caller's own wake-up is not charged to the engine.
type engineWait struct {
	ch              chan server.Response
	done            func(server.Response)
	submitted, went time.Time
}

func newEngineSys(w *workload, lvl level, callers, conns int, pairs []ds.KV) (*engineSys, error) {
	eng, err := server.NewEngine(ibrdConfig(w.structure))
	if err != nil {
		return nil, err
	}
	e := &engineSys{w: w, eng: eng}
	if err := e.prefill(pairs); err != nil {
		eng.Close()
		return nil, err
	}
	if lvl == levelEngine {
		e.waits = make([]engineWait, callers)
		for i := range e.waits {
			cw := &e.waits[i]
			cw.ch = make(chan server.Response, 1)
			cw.done = func(r server.Response) {
				cw.went = time.Now()
				cw.ch <- r
			}
		}
		return e, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	e.srv = server.NewServer(eng, ibrdServer)
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	for i := 0; i < conns; i++ {
		cl, err := server.Dial(ln.Addr().String())
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, cl)
	}
	return e, nil
}

// pipeline submits n requests through the engine with a bounded window,
// calling on (from worker goroutines) with each response.
func (e *engineSys) pipeline(n int, mk func(i int) server.Request, on func(i int, r server.Response)) error {
	const window = 1024 // well under one shard queue, so submits never see BUSY
	sem := make(chan struct{}, window)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		if err := e.eng.SubmitRequest(mk(i), func(r server.Response) {
			on(i, r)
			<-sem
			wg.Done()
		}); err != nil {
			wg.Done()
			wg.Wait()
			return fmt.Errorf("submit %d: %w", i, err)
		}
	}
	wg.Wait()
	return nil
}

func (e *engineSys) prefill(pairs []ds.KV) error {
	var bad atomic.Uint64
	err := e.pipeline(len(pairs), func(i int) server.Request {
		return server.Request{Op: server.OpPut, Key: pairs[i].Key, Val: pairs[i].Val}
	}, func(_ int, r server.Response) {
		if r.Status != server.StatusOK {
			bad.Add(1)
		}
	})
	if err == nil && bad.Load() != 0 {
		err = fmt.Errorf("prefill: %d of %d puts not OK", bad.Load(), len(pairs))
	}
	return err
}

func (e *engineSys) do(c int, req server.Request) (server.Response, error) {
	if e.waits == nil {
		return e.clients[c%len(e.clients)].DoContext(context.Background(), req)
	}
	cw := &e.waits[c]
	err := e.eng.SubmitRequest(req, cw.done)
	cw.submitted = time.Now()
	if err != nil {
		e.refusals.Add(1)
		return server.Response{}, err
	}
	return <-cw.ch, nil
}

// stamps returns when caller c's last SubmitRequest returned and when its
// done callback ran (engine level only).
func (e *engineSys) stamps(c int) (submitted, completed time.Time) {
	return e.waits[c].submitted, e.waits[c].went
}

func (e *engineSys) gauge() gauge {
	var g gauge
	for _, st := range e.eng.Stats() {
		g.unreclaimed += st.Unreclaimed
		g.lag = max(g.lag, st.EpochLag)
		g.queue = max(g.queue, st.QueueDepth)
	}
	return g
}

func (e *engineSys) snap() counters {
	var c counters
	for _, st := range e.eng.Stats() {
		c.scan.Scans += st.Scan.Scans
		c.scan.Scanned += st.Scan.Scanned
		c.scan.Freed += st.Scan.Freed
		c.scan.BucketSkips += st.Scan.BucketSkips
		c.scan.BucketFrees += st.Scan.BucketFrees
		c.retUser += st.RetiredUser
		c.retExpiry += st.RetiredExpiry
		c.rangeLegs += st.RangeOps
		c.expired += st.Expired
		c.underScanHW = max(c.underScanHW, st.UnderScanHW)
	}
	eo := e.eng.Obs()
	for i := 0; i < 3; i++ { // get, put, del: the engine's point-op slots
		c.exec.Merge(eo.OpLatency(i))
	}
	for i := range c.phases {
		c.phases[i] = eo.ScanPhase(i)
	}
	c.refused = e.refusals.Load()
	if e.srv != nil {
		c.protoDropped, c.protoRej = e.srv.ProtoDropped(), e.srv.ProtoRejected()
	}
	return c
}

// finish checks the quiescent engine: once every armed TTL has fired, the
// live keys are exactly prefill + PUT OKs − DEL OKs − expirations, each
// holding its generated value; after Shutdown nothing is left unreclaimed.
func (e *engineSys) finish(prefilled int, putOK, delOK uint64) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, cl := range e.clients {
		if err := cl.CloseContext(ctx); err != nil {
			e.close()
			return fmt.Errorf("closing client: %w", err)
		}
	}
	e.clients = nil
	err := e.awaitExpiry(e.w.ttl + 5*time.Second)
	// A collected expiry batch may still be queued or running after the
	// wheel empties, so the count is retried until no expiry lands during it.
	for try := 0; err == nil; try++ {
		before := e.expired()
		var live int64
		if live, err = e.countLive(); err != nil {
			break
		}
		expired := e.expired()
		if expired != before {
			if try == 5 {
				err = errors.New("expiry: keys still expiring after the wheel emptied")
			}
			continue
		}
		if want := int64(prefilled) + int64(putOK) - int64(delOK) - int64(expired); live != want {
			err = fmt.Errorf("conservation: %d keys live, want prefill %d + puts %d - dels %d - expired %d = %d",
				live, prefilled, putOK, delOK, expired, want)
		}
		break
	}
	e.close()
	if err != nil {
		return err
	}
	if e.served != nil {
		if err := <-e.served; err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	var un int
	for _, st := range e.eng.Stats() {
		un += st.Unreclaimed
	}
	if un != 0 {
		return fmt.Errorf("%d blocks unreclaimed after shutdown", un)
	}
	return nil
}

func (e *engineSys) expired() uint64 {
	var n uint64
	for _, st := range e.eng.Stats() {
		n += st.Expired
	}
	return n
}

// countLive reads every key through the engine, checking each value found.
func (e *engineSys) countLive() (int64, error) {
	var live, bad atomic.Int64
	var firstBad atomic.Value
	err := e.pipeline(int(e.w.keys), func(i int) server.Request {
		return server.Request{Op: server.OpGet, Key: uint64(i)}
	}, func(i int, r server.Response) {
		switch {
		case r.Status == server.StatusOK && r.Val == value(uint64(i)):
			live.Add(1)
		case r.Status == server.StatusNotFound:
		default:
			bad.Add(1)
			firstBad.CompareAndSwap(nil, fmt.Sprintf("quiescent GET %d answered %v %d", i, r.Status, r.Val))
		}
	})
	if err == nil && bad.Load() != 0 {
		err = fmt.Errorf("%d bad quiescent reads, first: %v", bad.Load(), firstBad.Load())
	}
	return live.Load(), err
}

// awaitExpiry waits until no shard has a TTL armed.
func (e *engineSys) awaitExpiry(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		pending := 0
		for _, st := range e.eng.Stats() {
			pending += st.ExpiryPending
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("expiry: TTLs still armed at the deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// close tears the pass down: clients first, so no connection is still
// sending when the server drains.
func (e *engineSys) close() {
	for _, cl := range e.clients {
		cl.Close()
	}
	e.clients = nil
	if e.srv != nil {
		e.srv.Shutdown()
	} else {
		e.eng.Close()
	}
}
