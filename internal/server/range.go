package server

import (
	"sync"

	"ibr/internal/core"
	"ibr/internal/ds"
	"ibr/internal/obs"
)

// Range execution. Keys are hashed across shards, so one Range fans out to
// every shard: each leg scans its shard's structure inside a single
// reservation bracket (ds.Ranger's contract) — the paper's long-running
// read, one interval per shard — and reports its sorted slice to the
// shared collector. The last leg to finish merges the slices and invokes
// the caller's done exactly once.
type rangeOp struct {
	from, to uint64
	limit    int

	mu      sync.Mutex
	pending int // legs not yet reported, +1 submission sentinel
	status  Status
	parts   [][]Pair
	done    func(Response)
}

// finish retires one leg (or the submission sentinel), folding its result
// in; the caller that drops pending to zero completes the request. A leg
// that failed (worker death) poisons the whole range: a partial merge
// would silently present a hole as an empty interval. part must already be
// sorted ascending (legs scan in key order).
func (ro *rangeOp) finish(e *Engine, sh *shard, part []Pair, st Response) {
	ro.mu.Lock()
	if st.Status != StatusOK {
		ro.status = st.Status
	} else if part != nil {
		ro.parts = append(ro.parts, part)
	}
	ro.pending--
	last := ro.pending == 0
	ro.mu.Unlock()
	if !last {
		return
	}
	// Single completer past this point; the fields are ours alone.
	if ro.status != StatusOK {
		ro.done(Response{Status: ro.status})
		return
	}
	merged := mergePairs(ro.parts, ro.limit)
	if eo := e.obs; eo != nil {
		eo.rangeLen.Record(uint64(len(merged)))
	}
	ro.done(Response{Status: StatusOK, Pairs: merged})
}

// mergePairs k-way merges per-shard ascending slices into one ascending
// result of at most limit pairs. Shards partition the key space (a key
// lives on exactly one shard), so no cross-part duplicates can occur.
func mergePairs(parts [][]Pair, limit int) []Pair {
	live := parts[:0]
	total := 0
	for _, p := range parts {
		if len(p) > 0 {
			live = append(live, p)
			total += len(p)
		}
	}
	if total > limit {
		total = limit
	}
	if total == 0 {
		return nil
	}
	out := make([]Pair, 0, total)
	for len(out) < total {
		best := -1
		for i, p := range live {
			if best < 0 || p[0].Key < live[best][0].Key {
				best = i
			}
		}
		out = append(out, live[best][0])
		if live[best] = live[best][1:]; len(live[best]) == 0 {
			live[best] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return out
}

// submitRange validates and fans a Range out to every shard. The pending
// count starts at len(shards)+1: the +1 submission sentinel keeps the
// collector from completing while legs are still being enqueued, and its
// retirement (after the loop) also folds in any enqueue failures.
func (e *Engine) submitRange(req Request, done func(Response)) error {
	if !e.ranging {
		// A typed answer, not an error: the request was well-formed, the
		// serving structure just cannot execute it (see StatusUnsupported).
		done(Response{Status: StatusUnsupported})
		return nil
	}
	if req.KeyHi < req.Key || req.KeyHi >= ds.KeyLimit {
		done(Response{Status: StatusBadRequest})
		return nil
	}
	// Admission: a range touches every shard, so any shedding shard sheds
	// the whole request — scans are exactly the load a backlogged shard
	// must refuse, pinning as they do its oldest epoch for their duration.
	for _, sh := range e.shards {
		if sh.shedding.Load() {
			sh.shed.Add(1)
			return ErrShedding
		}
	}
	limit := e.cfg.MaxRangeResults
	if req.Limit != 0 && int(req.Limit) < limit {
		limit = int(req.Limit)
	}
	ro := &rangeOp{
		from:    req.Key,
		to:      req.KeyHi,
		limit:   limit,
		pending: len(e.shards) + 1,
		done:    done,
	}
	failed := Response{Status: StatusOK}
	for _, sh := range e.shards {
		if err := sh.q.push(request{req: req, rng: ro}); err != nil {
			// This leg will never run; account it here. Remaining shards
			// still get the request — the sentinel's failure status wins,
			// but accepted legs must execute (their queues own them now).
			failed = Response{Status: StatusBusy}
			ro.finish(e, nil, nil, Response{Status: StatusBusy})
		}
	}
	ro.finish(e, nil, nil, failed) // retire the submission sentinel
	return nil
}

// execRange runs one shard leg under the worker's leased tid: one
// ds.Ranger scan — a single StartOp/EndOp bracket, however many keys it
// visits — collecting at most limit pairs. The unreclaimed sample taken
// while the reservation is still notionally pinning (right after the scan)
// feeds the under-scan high-water mark, the end-to-end evidence for the
// paper's claim: under EBR a concurrent writer's garbage accumulates for
// the scan's whole duration; under the interval schemes it stays bounded.
func (e *Engine) execRange(sh *shard, tid int, r *request) {
	ro := r.rng
	sh.rangeOps.Add(1)
	sh.activeScans.Add(1)
	var t0 uint64
	if e.obs != nil {
		t0 = obs.Now()
	}
	var part []Pair
	// The visitor receives values, not handles, so nothing escapes the
	// bracket — the ds-side Range implementations are held to that contract
	// by ibrlint's range-callback rule (lifecycle, over their Do closures).
	sh.m.(ds.Ranger).Range(tid, ro.from, ro.to, func(k, v uint64) bool {
		part = append(part, Pair{Key: k, Val: v})
		return len(part) < ro.limit
	})
	sh.noteUnderScan(core.TotalUnreclaimed(sh.inst.Scheme(), e.tids))
	sh.activeScans.Add(-1)
	if eo := e.obs; eo != nil {
		d := obs.Now() - t0
		eo.opLat[latRange].Record(d)
		if r.req.TraceID != 0 {
			eo.opEvent(sh.idx, tid, r.req.TraceID, d)
		}
	}
	ro.finish(e, sh, part, Response{Status: StatusOK})
}
