package server

import (
	"sync"

	"ibr/internal/core"
	"ibr/internal/ds"
	"ibr/internal/obs"
)

// Range execution. Keys are hashed across shards, so one Range covers
// every shard: its legs run one after another on the calling goroutine,
// each under a tid borrowed from its shard and inside a single reservation
// bracket (ds.Ranger's contract) — the paper's long-running read, one
// interval per shard. Every leg appends its ascending run to one pooled
// rangeScratch, and one merge pass copies the runs, in key order, into the
// range's result: the only allocation a range makes. The result never
// aliases the scratch: the next range reuses the scratch while the
// connection's writer may still be encoding this one.

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
// tids. Every exit hands the scratch back (or drops it, see release).
func (e *Engine) runRange(req *Request) (Response, error) {
	if st := e.rangeStatus(req); st != StatusOK {
		return Response{Status: st}, nil
	}
	limit := e.cfg.MaxRangeResults
	if req.Limit != 0 && int(req.Limit) < limit {
		limit = int(req.Limit)
	}
	s := getRangeScratch()
	defer s.release()
	for _, sh := range e.shards {
		t := sh.borrow()
		if t == nil {
			return Response{}, ErrClosed
		}
		if failed := e.rangeLeg(sh, t, req, s, limit); failed.Status != StatusOK {
			return failed, nil
		}
	}
	merged := s.merge(limit)
	e.obs.rangeLen.Record(uint64(len(merged)))
	return Response{Status: StatusOK, Pairs: merged}, nil
}

// rangeLeg runs one shard leg under the borrowed t and releases it: one
// ds.Ranger scan — a single StartOp/EndOp bracket, however many keys it
// visits — appending at most limit pairs to s as one run. failed is
// INTERNAL if the leg panicked. The unreclaimed sample taken while the
// reservation is still notionally pinning (right after the scan) feeds the
// under-scan high-water mark, the end-to-end evidence for the paper's
// claim: under EBR a concurrent writer's garbage accumulates for the
// scan's whole duration; under the interval schemes it stays bounded.
func (e *Engine) rangeLeg(sh *shard, t *tidSlot, req *Request, s *rangeScratch, limit int) (failed Response) {
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
	// bracket: ds.Ranger's callback takes (key, val uint64), and the
	// protocol boundary test keeps this package off raw Pool.Get, the only
	// other way to a node.
	s.legEnd = len(s.pairs) + limit
	sh.m.(ds.Ranger).Range(t.tid, req.Key, req.KeyHi, s.collect)
	s.ends = append(s.ends, len(s.pairs))
	sh.noteUnderScan(core.TotalUnreclaimed(sh.inst.Scheme(), e.tids))
	d := obs.Now() - t0
	e.obs.opLat[latRange].Record(d)
	if req.TraceID != 0 {
		e.obs.opEvent(sh.idx, t.tid, req.TraceID, d)
	}
	sh.ops.Add(1)
	return Response{}
}

// rangeScratch is one range's collection buffer, recycled through
// rangeScratches: every leg appends its ascending run to pairs, and ends
// marks where each run stops. heads and next are the merge's per-run
// state, kept here so that the merge allocates only its result.
type rangeScratch struct {
	pairs  []Pair
	ends   []int    // ends[i]: where run i stops in pairs
	heads  []uint64 // run i's next key, or exhausted
	next   []int    // run i's next index in pairs
	legEnd int      // the current leg stops once len(pairs) reaches it
	// collect is s.add, bound once when s is made, so the func value a
	// leg hands to ds.Ranger.Range captures nothing new and no leg
	// allocates.
	collect func(key, val uint64) bool
}

var rangeScratches = sync.Pool{New: func() any {
	s := new(rangeScratch)
	s.collect = s.add
	return s
}}

// getRangeScratch takes an empty scratch from the pool.
func getRangeScratch() *rangeScratch {
	s := rangeScratches.Get().(*rangeScratch)
	s.pairs, s.ends = s.pairs[:0], s.ends[:0]
	return s
}

// release hands s back to the pool, unless it grew past maxRangeLimit
// pairs: one Limit-0 range collects up to MaxRangeResults pairs per leg,
// and that buffer must not stay pinned, so it is dropped.
func (s *rangeScratch) release() {
	if cap(s.pairs) <= maxRangeLimit {
		rangeScratches.Put(s)
	}
}

// add is the legs' visitor: it appends one pair to the current run and
// asks for more until the run holds its leg's limit.
func (s *rangeScratch) add(key, val uint64) bool {
	s.pairs = append(s.pairs, Pair{Key: key, Val: val})
	return len(s.pairs) < s.legEnd
}

// exhausted is a spent run's head: it is above every key, since keys are
// below ds.KeyLimit, so a spent run never wins the merge.
const exhausted = ^uint64(0)

// merge returns the first limit pairs of the runs in s, ascending, in a
// new slice of exactly that length (nil if there are none), which never
// aliases s. Each step scans the runs' head keys for the least and
// advances that run. Shards partition the key space (a key lives on
// exactly one shard), so no key appears in two runs.
func (s *rangeScratch) merge(limit int) []Pair {
	n := min(len(s.pairs), limit)
	if n == 0 {
		return nil
	}
	s.heads, s.next = s.heads[:0], s.next[:0]
	start := 0
	for _, end := range s.ends {
		h := exhausted
		if start < end {
			h = s.pairs[start].Key
		}
		s.heads = append(s.heads, h)
		s.next = append(s.next, start)
		start = end
	}
	heads, next, ends := s.heads, s.next, s.ends
	out := make([]Pair, n)
	for j := range out {
		r, least := 0, heads[0]
		for i, h := range heads {
			if h < least {
				r, least = i, h
			}
		}
		p := next[r]
		out[j] = s.pairs[p]
		p++
		next[r] = p
		if p < ends[r] {
			heads[r] = s.pairs[p].Key
		} else {
			heads[r] = exhausted
		}
	}
	return out
}
