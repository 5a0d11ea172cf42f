package main

import (
	"fmt"
	"time"

	"ibr/internal/core"
	"ibr/internal/ds"
	"ibr/internal/epoch"
	"ibr/internal/obs"
	"ibr/internal/server"
)

// libSys drives one ds.Map directly: caller c runs as scheme tid c, and a
// stalled tid (when the workload has one) takes the next tid.
type libSys struct {
	m       ds.Map
	rg      ds.Ranger // nil for unordered structures
	s       core.Scheme
	inst    ds.Instrumented
	threads int
	phases  *obs.ScanPhases // scan-phase timing, traced passes only
	bufs    [][]server.Pair // per-caller Range result buffers
}

// newLib builds the structure and bulk-loads pairs. A traced pass attaches
// a scheme observer that feeds only the scan-phase histograms.
func newLib(w *workload, callers int, pairs []ds.KV, traced bool) (*libSys, error) {
	threads := callers
	if w.stall {
		threads++
	}
	l := &libSys{threads: threads, bufs: make([][]server.Pair, callers)}
	var so *obs.SchemeObs
	if traced {
		l.phases = &obs.ScanPhases{}
		so = obs.NewSchemeObs(obs.SchemeObsConfig{Threads: threads, Phases: l.phases})
	}
	m, err := ds.NewMap(w.structure, ds.Config{
		Scheme: "tagibr",
		Core:   core.Options{Threads: threads, Obs: so},
	})
	if err != nil {
		return nil, err
	}
	m.Fill(pairs)
	l.m, l.inst = m, m.(ds.Instrumented)
	l.s = l.inst.Scheme()
	l.rg, _ = m.(ds.Ranger)
	return l, nil
}

func (l *libSys) do(c int, req server.Request) (server.Response, error) {
	switch req.Op {
	case server.OpGet:
		if v, ok := l.m.Get(c, req.Key); ok {
			return server.Response{Status: server.StatusOK, Val: v}, nil
		}
		return server.Response{Status: server.StatusNotFound}, nil
	case server.OpPut:
		if l.m.Insert(c, req.Key, req.Val) {
			return server.Response{Status: server.StatusOK, Val: req.Val}, nil
		}
		if core.AllocFailed(l.s, c) {
			return server.Response{Status: server.StatusBusy}, nil
		}
		return server.Response{Status: server.StatusExists}, nil
	case server.OpDel:
		if l.m.Remove(c, req.Key) {
			return server.Response{Status: server.StatusOK}, nil
		}
		return server.Response{Status: server.StatusNotFound}, nil
	case server.OpRange:
		if l.rg == nil {
			return server.Response{Status: server.StatusUnsupported}, nil
		}
		buf, limit := l.bufs[c][:0], int(req.Limit)
		l.rg.Range(c, req.Key, req.KeyHi, func(k, v uint64) bool {
			buf = append(buf, server.Pair{Key: k, Val: v})
			return len(buf) < limit
		})
		l.bufs[c] = buf
		return server.Response{Status: server.StatusOK, Pairs: buf}, nil
	}
	return server.Response{Status: server.StatusBadRequest}, nil
}

// stallOnce publishes a reservation for d and withdraws it: the paper's
// preempted thread, holding back every block retired meanwhile.
func (l *libSys) stallOnce(tid int, d time.Duration) {
	l.s.StartOp(tid)
	defer l.s.EndOp(tid)
	time.Sleep(d)
}

func (l *libSys) gauge() gauge {
	g := gauge{unreclaimed: core.TotalUnreclaimed(l.s, l.threads)}
	c, ok1 := l.s.(interface{ Clock() *epoch.Clock })
	r, ok2 := l.s.(interface{ Reservations() *epoch.Table })
	if ok1 && ok2 {
		now := c.Clock().Now()
		if lo := r.Reservations().MinLower(); lo != epoch.None && lo <= now {
			g.lag = now - lo
		}
	}
	return g
}

func (l *libSys) snap() counters {
	var c counters
	c.pool = l.inst.PoolStats()
	if sc, ok := l.s.(interface{ ScanStats() core.ScanStats }); ok {
		c.scan = sc.ScanStats()
	}
	src := core.RetireSources(l.s)
	c.retUser, c.retExpiry = src[core.SourceUser], src[core.SourceExpiry]
	if l.phases != nil {
		for i := range c.phases {
			c.phases[i] = l.phases[i].Snapshot()
		}
	}
	return c
}

// finish checks the quiescent structure: exactly the keys the run's
// successful inserts and removes leave, each holding its generated value,
// and nothing left unreclaimed once every tid has drained.
func (l *libSys) finish(prefilled int, putOK, delOK uint64) error {
	want := int64(prefilled) + int64(putOK) - int64(delOK)
	keys := l.m.Keys()
	if int64(len(keys)) != want {
		return fmt.Errorf("conservation: %d keys live, want prefill %d + inserts %d - removes %d = %d",
			len(keys), prefilled, putOK, delOK, want)
	}
	for _, k := range keys {
		if v, ok := l.m.Get(0, k); !ok || v != value(k) {
			return fmt.Errorf("quiescent Get(%d) = %d, %v; want %d", k, v, ok, value(k))
		}
	}
	core.DrainAll(l.s, l.threads)
	if n := core.TotalUnreclaimed(l.s, l.threads); n != 0 {
		return fmt.Errorf("%d blocks unreclaimed after DrainAll", n)
	}
	return nil
}

func (l *libSys) close() {}
