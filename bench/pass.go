package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ibr/internal/core"
	"ibr/internal/mem"
	"ibr/internal/obs"
	"ibr/internal/server"
)

// system is one pass's layer stack, built fresh for every pass.
type system interface {
	do(caller int, req server.Request) (server.Response, error)
	gauge() gauge
	snap() counters
	// finish checks the quiescent system's state against the callers'
	// lifetime totals, then tears it down.
	finish(prefilled int, putOK, delOK uint64) error
	close()
}

// gauge is one sample of the system's instantaneous state.
type gauge struct {
	unreclaimed int
	lag         uint64 // epoch lag of the oldest reservation
	queue       int    // deepest shard queue (served passes)
}

// counters are the layers' own cumulative counters, snapshotted at the
// start and end of the measured window.
type counters struct {
	pool                   mem.Stats
	scan                   core.ScanStats
	retUser, retExpiry     uint64
	phases                 [obs.NumScanPhases]obs.HistSnapshot
	exec                   obs.HistSnapshot // engine: point-op execution time, ns
	rangeLegs, expired     uint64
	underScanHW            int64
	refused                uint64 // engine level: SubmitRequest errors
	protoDropped, protoRej uint64
}

// sampleEvery is the gauge period: 7 ms does not divide the 10 ms stall,
// so samples walk across the stall's phases instead of locking onto one.
const sampleEvery = 7 * time.Millisecond

// dsTimeEvery: on the ds level one point call in dsTimeEvery is timed, so
// the clock reads stay a small fraction of a sub-microsecond call. Ranges
// and every engine/wire request are always timed.
const dsTimeEvery = 64

type passConfig struct {
	w       *workload
	level   level
	seed    int64
	nproc   int
	warmup  time.Duration
	measure time.Duration
	setups  int  // times to build the system; the median is reported
	traced  bool // record spans; the ds level also times scan phases
	origin  time.Time
}

type passResult struct {
	level   level
	setup   []time.Duration
	elapsed time.Duration
	tally   // merged over callers
	gauges  []gaugeSample
	before  counters
	after   counters
	err     error // the first validation failure
}

// gaugeSample is one sampler tick: the system's gauge and the callers'
// published op count, at an offset into the measured window.
type gaugeSample struct {
	at  time.Duration
	ops uint64
	gauge
}

// window is the shared clock of a pass. start is written before phase
// becomes phaseMeasure, so a caller that has seen phaseMeasure may read it.
type window struct {
	phase atomic.Int32
	start time.Time
}

const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// sliceLen splits the measured window. End-to-end metrics are medians over
// the slices, so a burst of interference from outside the benchmark moves a
// few slices, not the run's result.
const sliceLen = time.Second

func (w *window) slice(t time.Time) int { return max(int(t.Sub(w.start)/sliceLen), 0) }

// opsCounter is a caller's published op count, alone on its cache line.
type opsCounter struct {
	n atomic.Uint64
	_ [56]byte
}

// runPass builds the system cfg.setups times (keeping the last), drives it
// with the workload's closed-loop callers through a warm-up and the
// measured window, then validates and tears it down.
func runPass(cfg passConfig) (*passResult, error) {
	w := cfg.w
	roles := w.callers(cfg.nproc)
	pairs := w.prefill(cfg.seed)
	res := &passResult{level: cfg.level}

	var sys system
	for i := 0; i < max(cfg.setups, 1); i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		switch cfg.level {
		case levelDS:
			sys, err = newLib(w, len(roles), pairs, cfg.traced)
		default:
			sys, err = newEngineSys(w, cfg.level, len(roles), min(len(roles), cfg.nproc), pairs)
		}
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", levelNames[cfg.level], err)
		}
		res.setup = append(res.setup, time.Since(t0))
		if i < cfg.setups-1 {
			sys.close()
		}
	}

	var (
		win     window
		wg      sync.WaitGroup
		tallies = make([]*tally, len(roles))
		pub     = make([]opsCounter, len(roles))
	)
	for c, ro := range roles {
		tallies[c] = new(tally)
		wg.Add(1)
		go func() {
			defer wg.Done()
			callerLoop(cfg, sys, c, ro, w.gen(cfg.seed, c, ro), &win, tallies[c], &pub[c].n)
		}()
	}
	if lib, ok := sys.(*libSys); ok && w.stall {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for win.phase.Load() != phaseStop {
				lib.stallOnce(len(roles), stallOn)
				time.Sleep(stallOn)
			}
		}()
	}

	time.Sleep(cfg.warmup)
	res.before = sys.snap()
	win.start = time.Now()
	win.phase.Store(phaseMeasure)
	stopSampler := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-t.C:
			}
			s := gaugeSample{gauge: sys.gauge()}
			for i := range pub {
				s.ops += pub[i].n.Load()
			}
			s.at = time.Since(win.start)
			res.gauges = append(res.gauges, s)
		}
	}()
	time.Sleep(cfg.measure)
	win.phase.Store(phaseStop)
	res.elapsed = time.Since(win.start)
	res.after = sys.snap()
	close(stopSampler)
	<-sampled
	wg.Wait()

	for _, t := range tallies {
		res.merge(t)
	}
	if res.invalid != 0 {
		res.err = fmt.Errorf("%s pass: %d wrong answers, first: %w", levelNames[cfg.level], res.invalid, res.firstErr)
		sys.close()
		return res, nil
	}
	if err := sys.finish(len(pairs), res.putOK, res.delOK); err != nil {
		res.err = fmt.Errorf("%s pass: %w", levelNames[cfg.level], err)
	}
	return res, nil
}

func (r *passResult) merge(t *tally) {
	r.putOK += t.putOK
	r.delOK += t.delOK
	r.attempted += t.attempted
	r.failed += t.failed
	r.invalid += t.invalid
	if r.firstErr == nil {
		r.firstErr = t.firstErr
	}
	r.ops += t.ops
	r.insAtt += t.insAtt
	r.insOK += t.insOK
	r.remAtt += t.remAtt
	r.remOK += t.remOK
	r.ranges += t.ranges
	r.pairs += t.pairs
	for op := range t.lat {
		for s, xs := range t.lat[op] {
			r.record(server.Op(op), s, xs...)
		}
	}
	r.submit = append(r.submit, t.submit...)
	r.spans = append(r.spans, t.spans...)
}

var dsSpanNames = [server.OpRange + 1]string{
	server.OpGet: "ds.Get", server.OpPut: "ds.Insert", server.OpDel: "ds.Remove", server.OpRange: "ds.Range",
}

// callerLoop is one closed-loop caller: it issues its next request only
// after the previous one was answered.
func callerLoop(cfg passConfig, sys system, c int, ro role, g *gen, win *window, t *tally, pub *atomic.Uint64) {
	timeEvery := uint64(1)
	if cfg.level == levelDS {
		timeEvery = dsTimeEvery
	}
	es, _ := sys.(*engineSys)
	spanCap := maxPassSpans / len(cfg.w.callers(cfg.nproc))
	for n := uint64(1); ; n++ {
		if n%timeEvery == 0 {
			pub.Store(t.ops)
		}
		ph := win.phase.Load()
		if ph == phaseStop {
			pub.Store(t.ops)
			return
		}
		measuring := ph == phaseMeasure
		spanned := cfg.traced && measuring && n%spanEvery == 0 && len(t.spans) < spanCap
		var opStart time.Time
		if spanned {
			opStart = time.Now()
		}
		req := g.next()
		id := uint64(c+1)<<40 | n
		if spanned && cfg.level != levelDS {
			req.TraceID = id
		}
		timed := measuring && (req.Op == server.OpRange || n%timeEvery == 0) || spanned
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		resp, err := sys.do(c, req)
		var el time.Duration
		if timed {
			el = time.Since(t0)
		}
		oc, verr := check(req, resp, err)
		switch {
		case oc == outOK && req.Op == server.OpPut:
			t.putOK++
		case oc == outOK && req.Op == server.OpDel:
			t.delOK++
		case oc == outInvalid:
			t.invalid++
			if t.firstErr == nil {
				t.firstErr = verr
			}
		}
		if !measuring {
			continue
		}
		t.attempted++
		if oc == outFailed {
			t.failed++
		} else if ro != roleScanner {
			t.ops++
		}
		switch req.Op {
		case server.OpPut:
			t.insAtt++
			if oc == outOK {
				t.insOK++
			}
		case server.OpDel:
			t.remAtt++
			if oc == outOK {
				t.remOK++
			}
		case server.OpRange:
			t.ranges++
			t.pairs += uint64(len(resp.Pairs))
		}
		var submitted, completed time.Time
		if es != nil && es.waits != nil && err == nil {
			submitted, completed = es.stamps(c)
			el = completed.Sub(t0)
		}
		if timed && oc != outFailed {
			t.record(req.Op, win.slice(t0), nanos(el))
			if !submitted.IsZero() {
				t.submit = append(t.submit, nanos(submitted.Sub(t0)))
			}
		}
		if spanned {
			at := func(name string, from, to time.Time) {
				t.spans = append(t.spans, span{name: name, caller: c, id: id, start: from.Sub(cfg.origin), dur: to.Sub(from)})
			}
			at("op", opStart, time.Now())
			switch {
			case cfg.level == levelDS:
				at(dsSpanNames[req.Op], t0, t0.Add(el))
			case !submitted.IsZero():
				at("engine.SubmitRequest", t0, submitted)
				at("engine.complete", t0, completed)
			case cfg.level == levelWire:
				at("client.DoContext", t0, t0.Add(el))
			}
		}
	}
}
