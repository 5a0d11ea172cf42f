package core

import (
	"sync/atomic"

	"ibr/internal/mem"
)

// Hyaline is the snapshot-free reclamation scheme of Nikolaev and Ravindran
// ("Snapshot-Free, Transparent, and Robust Memory Reclamation"; see
// PAPERS.md), adapted to this repository's slab/handle substrate. Where the
// epoch and interval schemes decide reclaimability by scanning retire lists
// against a snapshot of every thread's reservation, Hyaline hands retired
// memory off: retired blocks are grouped into batches that carry a shared
// reference counter, a retiring thread enqueues one link node per *active*
// thread onto that thread's lock-free retirement list, and each thread
// drops its references when it leaves its operation. A batch is freed by
// whichever thread drops the last reference — no thread ever walks another
// thread's retire list, and no scan re-examines a backlog.
//
// Mapping from the paper's node overlay to this substrate: the paper stores
// REFS (the batch reference counter) in the batch's first retired node and
// NREF (a pointer back to the REFS node) plus the per-slot list link in
// every other node, overlaying reclamation metadata on the dead blocks
// themselves. Here nodes are typed slots of a mem.Pool, so the scheme may
// not alias their bodies; the overlay is therefore carried by scheme-owned
// descriptors with the same roles and lifetimes: hyBatch is the REFS node
// (counter + the batch's mem.Handle slab slots), and hyNode is an NREF node
// (batch back-pointer + per-slot list link). Blocks still return to the
// allocator through one mem.Pool.FreeBatches per batch.
//
// Cost model: StartOp is one store, Read/Write/CAS are uninstrumented
// (Hyaline is "transparent" — no per-access work at all, like EBR), EndOp
// is one swap plus one counter decrement per batch handed to this thread
// during the operation, and retire is O(1) amortized (one CAS per active
// thread per EmptyFreq retirements). Reclamation never scans: the
// examined-per-freed ratio stays ~1 no matter how many threads stall.
//
// Like EBR — and unlike the IBR family — plain Hyaline is not robust: a
// thread that stalls inside an operation holds its slot reference forever,
// and every batch retired while it is active keeps one reference it will
// never drop. (The paper's robust variants graft hazard eras on top.) The
// serving layer restores the bound operationally: quarantining a stalled
// tid force-leaves its slot via ClearReservation, dropping exactly the
// references the stalled thread would have dropped, so its backlog drains
// without the stall ending.
type Hyaline struct {
	base
	slots []hySlot
	// inflight[tid] counts blocks tid has sealed into batches that are not
	// yet freed. Decremented (possibly by another thread) when the batch
	// frees; together with the unsealed accumulation in ts[tid].retired it
	// makes Unreclaimed exact, which the serving layer's admission
	// watermarks rely on.
	inflight []paddedCounter
}

// hyBatch is a batch descriptor — the REFS node of the paper's overlay. refs
// is the number of outstanding link nodes not yet traversed by a leaving
// thread, held at hyRefsBias while the sealer is still enqueuing so a fast
// concurrent leave cannot free the batch mid-handoff.
type hyBatch struct {
	refs   atomic.Int64
	owner  int32          // retiring tid, for the unreclaimed accounting
	blocks []retiredBlock // retire-epoch order (the clock is monotone)
}

// hyNode is one per-slot retirement-list link — an NREF node: it names its
// batch (the paper's NREF back-pointer) and the next node of the slot list
// it was pushed onto. A node is pushed to exactly one slot list and
// traversed exactly once, by the leave() that detaches that list.
type hyNode struct {
	batch *hyBatch
	next  *hyNode
}

// hyInactive marks a slot whose thread is outside any operation. It is a
// distinguished head value rather than a separate flag so that "is the
// thread active?" and "what is its list?" are one atomic word — the
// paper's packed (HRef, HPtr) head. A retiring thread that reads it skips
// the slot; a CAS push can therefore never land on a session that already
// ended, which is what makes every enqueued reference certain to be
// dropped.
var hyInactive = &hyNode{}

// hySlot is one thread's retirement-list head, padded so enter/leave on
// neighbouring tids never share a cache line.
type hySlot struct {
	_    [64]byte
	head atomic.Pointer[hyNode]
	_    [64]byte
}

// hyRefsBias holds a sealing batch's reference counter away from zero until
// every push has completed; the sealer then adds (pushed - hyRefsBias) and
// frees on zero itself if no active thread took a reference.
const hyRefsBias = int64(1) << 32

// NewHyaline builds a Hyaline reclaimer. Batches seal every EmptyFreq
// retirements (the same cadence the scanning schemes scan on).
func NewHyaline(m Memory, o Options) *Hyaline {
	o = o.withDefaults()
	s := &Hyaline{
		base:     newBase("hyaline", m, o),
		slots:    make([]hySlot, o.Threads),
		inflight: make([]paddedCounter, o.Threads),
	}
	// Hyaline seals on the fixed EmptyFreq cadence: the watermark-driven
	// adaptive drain learns from a scan's freed/examined yield, but a seal
	// is a handoff — its yield says nothing about protection — and backing
	// off would only grow the sealed batches.
	s.adaptive = false
	for i := range s.slots {
		s.slots[i].head.Store(hyInactive)
	}
	return s
}

// StartOp activates tid's slot with an empty retirement list. From here
// until EndOp, every batch sealed anywhere gains one reference owed by this
// thread — the handoff that replaces reservation snapshots.
func (s *Hyaline) StartOp(tid int) {
	sl := &s.slots[tid]
	if sl.head.Load() == hyInactive {
		// Plain store is sound: pushers never CAS against hyInactive (they
		// skip inactive slots), so no push can interleave between the load
		// and the store.
		sl.head.Store(nil)
	}
}

// EndOp deactivates the slot and drops this thread's reference from every
// batch handed to it during the operation, freeing the batches it was the
// last to hold.
func (s *Hyaline) EndOp(tid int) { s.leave(tid, tid) }

// RestartOp is leave + re-enter: it drops every reference accumulated so
// far (the caller holds no node references across the call), bounding what
// a starving-but-live thread can pin, exactly like the interval schemes'
// reservation renewal.
func (s *Hyaline) RestartOp(tid int) {
	s.leave(tid, tid)
	s.slots[tid].head.Store(nil)
}

// Alloc allocates without epoch stamping: Hyaline keeps no birth epochs
// (retire epochs are stamped only so retire lists stay mergeable and ages
// observable). On exhaustion it seals and hands off its own accumulation
// once, which frees immediately when no thread is active.
func (s *Hyaline) Alloc(tid int) mem.Handle { return s.allocPlain(tid, s.Drain) }

// Retire stamps the retire epoch and accumulates the block into tid's open
// batch (ts[tid].retired, kept in retire-epoch order by the shared retire
// helper); every EmptyFreq retirements the batch seals and is handed to the
// active slots.
func (s *Hyaline) Retire(tid int, h mem.Handle) { s.retire(tid, h, s.Drain) }

// Read is an uninstrumented load — Hyaline's transparency: no per-access
// protocol at all, the active slot already guarantees every batch retired
// during the operation waits for this thread's leave.
func (s *Hyaline) Read(tid, idx int, p *Ptr) mem.Handle { return p.Raw() }

// ReadRoot is Read.
func (s *Hyaline) ReadRoot(tid, idx int, p *Ptr) mem.Handle { return p.Raw() }

// Drain seals tid's open batch and hands it off regardless of the EmptyFreq
// cadence. When no thread is active the batch frees immediately (the
// quiescent DrainAll path); otherwise the blocks free as the active threads
// leave — there is no list to rescan either way.
func (s *Hyaline) Drain(tid int) { s.sealAndHand(tid) }

// Unreclaimed counts tid's blocks that are retired and not yet freed: the
// unsealed accumulation plus the blocks in flight inside sealed batches.
func (s *Hyaline) Unreclaimed(tid int) int {
	return int(s.ts[tid].unreclaimed.Load() + s.inflight[tid].n.Load())
}

// Robust is false: a stalled active thread never drops its references, so —
// exactly like EBR's pinned epoch — the backlog behind it grows without
// bound. The serving layer's quarantine restores the bound by force-leaving
// the stalled slot (ClearReservation).
func (s *Hyaline) Robust() bool { return false }

// ClearReservation is Hyaline's neutralization hook: EndOp executed on
// tid's behalf. It force-leaves the slot, dropping every reference the
// stalled (parked or dead — the caller's evidence) holder would have
// dropped. Freed slots are returned under tid's own pool cache, which the
// same evidence proves unshared.
func (s *Hyaline) ClearReservation(tid int) { s.leave(tid, tid) }

// leave ends slot's active session: detach the session's retirement list in
// one swap and drop one reference from every batch on it. freeTid names the
// thread state charged for the traversal and the pool cache that receives
// any freed slots (the leaver itself, on every current path).
func (s *Hyaline) leave(slot, freeTid int) {
	old := s.slots[slot].head.Swap(hyInactive)
	if old == hyInactive || old == nil {
		return
	}
	ts := &s.ts[freeTid]
	t0 := s.obs.ScanStart()
	ts.scans.Add(1)
	free := ts.freeScratch[:0]
	examined := uint64(0)
	for n := old; n != nil; n = n.next {
		examined++ // one decrement per link node: the handoff's whole cost
		b := n.batch
		if b.refs.Add(-1) == 0 {
			for _, rb := range b.blocks {
				free = append(free, rb.h)
			}
			examined += uint64(len(b.blocks))
			s.inflight[b.owner].n.Add(-int64(len(b.blocks)))
		}
	}
	ts.scanned.Add(examined)
	ts.freeScratch = free
	s.finishScan(freeTid, free, nil, examined, t0)
}

// sealAndHand closes tid's open batch and pushes one link node onto every
// active slot's retirement list. The bias keeps the batch unfreeable until
// the sealer has finished counting; if no slot was active, the sealer
// itself frees the batch — the path that makes quiescent drains immediate.
func (s *Hyaline) sealAndHand(tid int) {
	ts := &s.ts[tid]
	if ts.store.count == 0 {
		return
	}
	t0 := s.obs.ScanStart()
	ts.scans.Add(1)
	// takeAll drains the open accumulation in retire-epoch order (Hyaline
	// stamps no births, so the store is the single birth-0 bucket and this
	// is a straight copy).
	blocks := ts.store.takeAll()
	ts.unreclaimed.Store(0)
	s.inflight[tid].n.Add(int64(len(blocks)))

	b := &hyBatch{owner: int32(tid), blocks: blocks}
	b.refs.Store(hyRefsBias)
	pushed := int64(0)
	examined := uint64(0)
	for i := range s.slots {
		examined++ // one head probe per slot: the seal's whole scan cost
		n := &hyNode{batch: b}
		for {
			old := s.slots[i].head.Load()
			if old == hyInactive {
				break
			}
			n.next = old
			if s.slots[i].head.CompareAndSwap(old, n) {
				pushed++
				break
			}
		}
	}
	if b.refs.Add(pushed-hyRefsBias) == 0 {
		// No active thread took a reference: the batch is free now.
		free := ts.freeScratch[:0]
		for _, rb := range blocks {
			free = append(free, rb.h)
		}
		examined += uint64(len(blocks))
		s.inflight[tid].n.Add(-int64(len(blocks)))
		ts.scanned.Add(examined)
		ts.freeScratch = free
		s.finishScan(tid, free, nil, examined, t0)
		return
	}
	ts.scanned.Add(examined)
	s.finishScan(tid, nil, nil, examined, t0)
}
