package server

import (
	"ibr/internal/core"
	"ibr/internal/ds"
	"ibr/internal/obs"
)

// Range execution. Keys are hashed across shards, so one Range covers
// every shard: its legs run one after another on the calling goroutine,
// each under a tid borrowed from its shard and inside a single reservation
// bracket (ds.Ranger's contract) — the paper's long-running read, one
// interval per shard — and mergePairs joins their sorted slices.

// rangeStatus is a range's verdict before it runs: UNSUPPORTED when the
// structure has no ordered scan, BAD_REQUEST for an inverted or
// out-of-domain interval, OK otherwise.
func (e *Engine) rangeStatus(req *Request) Status {
	switch {
	case !e.ranging:
		// A typed answer, not an error: the request was well-formed, the
		// serving structure just cannot execute it (see StatusUnsupported).
		return StatusUnsupported
	case req.KeyHi < req.Key || req.KeyHi >= ds.KeyLimit:
		return StatusBadRequest
	}
	return StatusOK
}

// runRange runs an admitted range on the calling goroutine, one shard leg
// at a time, and merges the legs. A leg that panics answers the whole
// range INTERNAL: a partial merge would silently present a hole as an
// empty interval. It fails only with ErrClosed, once Close has closed the
// tids.
func (e *Engine) runRange(req *Request) (Response, error) {
	if st := e.rangeStatus(req); st != StatusOK {
		return Response{Status: st}, nil
	}
	limit := e.cfg.MaxRangeResults
	if req.Limit != 0 && int(req.Limit) < limit {
		limit = int(req.Limit)
	}
	parts := make([][]Pair, len(e.shards))
	for i, sh := range e.shards {
		t := sh.borrow()
		if t == nil {
			return Response{}, ErrClosed
		}
		var failed Response
		if parts[i], failed = e.rangeLeg(sh, t, req, limit); failed.Status != StatusOK {
			return failed, nil
		}
	}
	merged := mergePairs(parts, limit)
	e.obs.rangeLen.Record(uint64(len(merged)))
	return Response{Status: StatusOK, Pairs: merged}, nil
}

// rangeLeg runs one shard leg under the borrowed t and releases it: one
// ds.Ranger scan — a single StartOp/EndOp bracket, however many keys it
// visits — collecting at most limit pairs. failed is INTERNAL if the leg
// panicked. The unreclaimed sample taken while the reservation is still
// notionally pinning (right after the scan) feeds the under-scan
// high-water mark, the end-to-end evidence for the paper's claim: under
// EBR a concurrent writer's garbage accumulates for the scan's whole
// duration; under the interval schemes it stays bounded.
func (e *Engine) rangeLeg(sh *shard, t *tidSlot, req *Request, limit int) (part []Pair, failed Response) {
	defer t.mu.Unlock()
	defer e.recoverAs(sh, t.tid, &failed)
	if h := e.cfg.testExecHook; h != nil {
		h(OpRange, req.Key)
	}
	sh.rangeLegs.Add(1)
	sh.activeScans.Add(1)
	defer sh.activeScans.Add(-1)
	t0 := obs.Now()
	// The visitor receives values, not handles, so nothing escapes the
	// bracket — the ds-side Range implementations are held to that contract
	// by ibrlint's range-callback rule (lifecycle, over their Do closures).
	sh.m.(ds.Ranger).Range(t.tid, req.Key, req.KeyHi, func(k, v uint64) bool {
		part = append(part, Pair{Key: k, Val: v})
		return len(part) < limit
	})
	sh.noteUnderScan(core.TotalUnreclaimed(sh.inst.Scheme(), e.tids))
	d := obs.Now() - t0
	e.obs.opLat[latRange].Record(d)
	if req.TraceID != 0 {
		e.obs.opEvent(sh.idx, t.tid, req.TraceID, d)
	}
	sh.ops.Add(1)
	return part, Response{}
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
