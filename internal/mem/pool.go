package mem

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

const (
	slabShift = 12
	// SlabSize is the number of slots per slab. Slabs are allocated lazily
	// as the pool grows and are never released, which is what makes the
	// allocator type-preserving. The last slab stops at the pool's cap, so
	// a pool capped below SlabSize carves exactly its cap. 4,096 slots (1.3
	// MB of 312-byte skip-list slots) keep a pool's growth in step with its
	// use: a new pool clears at most one such slab on its first Alloc, the
	// shards of a sharded engine carve only what their keys need, and a
	// full default pool's slab table still has only 1,024 entries.
	SlabSize = 1 << slabShift
	slabMask = SlabSize - 1

	cacheCap    = 128 // per-thread free-list cache capacity
	refillBatch = 64  // slots moved between the global list and a cache
)

// State is the lifecycle state of a slot, mirroring the block life course of
// §2.1 of the paper: alloc → (publish, detach) → retire → reclaim.
type State uint32

const (
	// StateFree marks a slot that is on a free list and may be reused.
	StateFree State = iota
	// StateLive marks a slot handed out by Alloc and not yet retired.
	StateLive
	// StateRetired marks a slot passed to a reclamation scheme's retire()
	// and not yet freed. Only the reclamation core moves slots here.
	StateRetired
)

func (s State) String() string {
	switch s {
	case StateFree:
		return "free"
	case StateLive:
		return "live"
	case StateRetired:
		return "retired"
	}
	return fmt.Sprintf("State(%d)", uint32(s))
}

// Header is the per-block metadata the paper stores "in the block header
// managed by the allocator (and hidden from the application)": the birth
// epoch, the retire epoch, and — an addition for validation — a reuse stamp
// that increments every time the slot is freed, letting tests detect
// use-after-free deterministically.
type Header struct {
	birth  atomic.Uint64
	retire atomic.Uint64
	stamp  atomic.Uint64
	state  atomic.Uint32
}

type slot[T any] struct {
	hdr  Header
	body T
}

type slab[T any] struct{ slots []slot[T] }

// pad64 pads a struct to a cache line to prevent false sharing between
// per-thread fields; 64 bytes matches the line size of every x86-64 and most
// arm64 parts.
type pad64 struct{ _ [64]byte }

type threadCache struct {
	_     pad64
	slots []uint64 // free slot ids owned by this thread
	// local statistics, folded into Stats on demand; atomic because Stats
	// may be read while workers run
	allocs        atomic.Uint64
	frees         atomic.Uint64
	cacheHits     atomic.Uint64 // Allocs served from the non-empty cache
	cacheMisses   atomic.Uint64 // Allocs that had to refill first
	globalRefills atomic.Uint64 // refills satisfied from the global free list
	freshCarves   atomic.Uint64 // refills that carved never-used slots
	_             pad64
}

// Options configures a Pool of nodes of type T.
type Options[T any] struct {
	// Threads is the number of worker thread ids (0..Threads-1) that will
	// call Alloc/Free. Required.
	Threads int
	// MaxSlots caps the pool. 0 means DefaultMaxSlots. Must not exceed
	// MaxSlots (the handle-encodable limit).
	MaxSlots uint64
	// Poison, if non-nil, is applied to a slot body when it is freed. Tests
	// use it to plant sentinel values that surface any read-after-free.
	Poison func(*T)
}

// DefaultMaxSlots is the default pool capacity: 1<<22 slots (4M nodes). At a
// typical 96-byte node this is ~400 MB if fully used.
const DefaultMaxSlots = 1 << 22

// ErrPoolExhausted is the typed form of a failed Alloc: the pool (plus any
// forced reclamation scan the caller ran) could not produce a free slot.
// Alloc itself keeps its (Handle, bool) hot-path signature; layers that turn
// exhaustion into an error — the serving engine's StatusBusy path, the
// public constructors — wrap this sentinel so callers can errors.Is it.
// Exhaustion is an overload condition, never a panic: the allocator's
// panics are reserved for invariant violations (double free, retire of a
// non-live slot), which indicate corruption rather than pressure.
var ErrPoolExhausted = errors.New("mem: pool exhausted")

// Pool is a slab-based manual allocator for nodes of type T. It plays the
// role jemalloc plays in the paper's artifact: a fast, thread-cached
// allocator whose free() really recycles memory.
//
// All methods are safe for concurrent use by distinct thread ids; a given
// tid must not be used by two goroutines at once.
type Pool[T any] struct {
	maxSlots uint64
	poison   func(*T)

	slabs  atomic.Pointer[[]*slab[T]]
	next   atomic.Uint64 // bump pointer over never-yet-used slots
	growMu sync.Mutex

	freeMu   sync.Mutex
	freeList []uint64

	caches []threadCache
}

// New creates a Pool for nodes of type T.
func New[T any](opt Options[T]) *Pool[T] {
	if opt.Threads <= 0 {
		panic("mem: Options.Threads must be positive")
	}
	max := opt.MaxSlots
	if max == 0 {
		max = DefaultMaxSlots
	}
	if max > MaxSlots {
		panic(fmt.Sprintf("mem: MaxSlots %d exceeds handle limit %d", max, uint64(MaxSlots)))
	}
	p := &Pool[T]{
		maxSlots: max,
		poison:   opt.Poison,
		caches:   make([]threadCache, opt.Threads),
	}
	empty := make([]*slab[T], 0)
	p.slabs.Store(&empty)
	for i := range p.caches {
		p.caches[i].slots = make([]uint64, 0, cacheCap)
	}
	return p
}

// Threads returns the number of thread ids the pool was created for.
func (p *Pool[T]) Threads() int { return len(p.caches) }

// Capacity returns the configured maximum number of slots.
func (p *Pool[T]) Capacity() uint64 { return p.maxSlots }

// Alloc hands out a live slot. It returns (Nil, false) when the pool is
// exhausted — including the thread-cached near-miss where the remaining
// free slots sit in other threads' caches (the usual price of lock-free
// allocation fast paths; jemalloc behaves the same way). The body is NOT
// zeroed — exactly like malloc — so callers must initialize every field
// before publishing; the reuse stamp and poison make forgotten
// initialization loud in tests.
func (p *Pool[T]) Alloc(tid int) (Handle, bool) {
	c := &p.caches[tid]
	if len(c.slots) == 0 {
		c.cacheMisses.Add(1)
		if !p.refill(c) {
			return Nil, false
		}
	} else {
		c.cacheHits.Add(1)
	}
	gid := c.slots[len(c.slots)-1]
	c.slots = c.slots[:len(c.slots)-1]
	c.allocs.Add(1)
	h := FromSlot(gid)
	hdr := p.hdr(h)
	if !hdr.state.CompareAndSwap(uint32(StateFree), uint32(StateLive)) {
		panic(fmt.Sprintf("mem: free-list corruption: slot %d in state %v", gid, State(hdr.state.Load())))
	}
	hdr.retire.Store(math.MaxUint64) // live blocks have an open interval
	return h, true
}

// refill tops up tid's cache from the global free list, or by carving fresh
// slots off the bump region (growing a slab if needed). Returns false only
// on exhaustion.
func (p *Pool[T]) refill(c *threadCache) bool {
	// Size the cache for the copy before taking freeMu: the append under
	// the allocator's only global lock must never have to grow the slice,
	// or one thread's cache reallocation stalls every other thread's
	// refill and spill.
	if cap(c.slots)-len(c.slots) < refillBatch {
		grown := make([]uint64, len(c.slots), len(c.slots)+refillBatch)
		copy(grown, c.slots)
		c.slots = grown
	}
	p.freeMu.Lock()
	if n := len(p.freeList); n > 0 {
		take := refillBatch
		if take > n {
			take = n
		}
		c.slots = append(c.slots, p.freeList[n-take:]...)
		p.freeList = p.freeList[:n-take]
		p.freeMu.Unlock()
		c.globalRefills.Add(1)
		return true
	}
	p.freeMu.Unlock()

	// Carve a batch of brand-new slots.
	carved := false
	for i := 0; i < refillBatch; i++ {
		gid := p.next.Add(1) - 1
		if gid >= p.maxSlots {
			p.next.Add(^uint64(0)) // undo; harmless if racy, next only guards
			break
		}
		p.ensureSlab(gid)
		c.slots = append(c.slots, gid)
		carved = true
	}
	if carved {
		c.freshCarves.Add(1)
	}
	return len(c.slots) > 0
}

func (p *Pool[T]) ensureSlab(gid uint64) {
	idx := int(gid >> slabShift)
	if s := *p.slabs.Load(); idx < len(s) {
		return
	}
	p.growMu.Lock()
	defer p.growMu.Unlock()
	cur := *p.slabs.Load()
	for idx >= len(cur) {
		n := min(SlabSize, p.maxSlots-uint64(len(cur))<<slabShift)
		grown := make([]*slab[T], len(cur)+1)
		copy(grown, cur)
		grown[len(cur)] = &slab[T]{slots: make([]slot[T], n)}
		p.slabs.Store(&grown)
		cur = grown
	}
}

// release runs the per-slot part of a free: the state transition, the
// reuse-stamp bump and the poison. It returns the slot id for the caller
// to put on a free list.
func (p *Pool[T]) release(h Handle) uint64 {
	gid, ok := h.Slot()
	if !ok {
		panic("mem: Free of nil handle")
	}
	hdr := p.hdr(h)
	old := State(hdr.state.Load())
	if old == StateFree || !hdr.state.CompareAndSwap(uint32(old), uint32(StateFree)) {
		panic(fmt.Sprintf("mem: double free of slot %d (state %v)", gid, old))
	}
	hdr.stamp.Add(1)
	if p.poison != nil {
		p.poison(p.get(h))
	}
	return gid
}

// Free returns a slot to the allocator. The slot must be Live (never
// published; e.g. discarded by a failed CAS before linking) or Retired
// (reclaimed by a scheme). Freeing a Free slot panics: that is a double
// free, one of the two bugs (§2.1) this whole system exists to prevent.
func (p *Pool[T]) Free(tid int, h Handle) {
	gid := p.release(h)
	c := &p.caches[tid]
	c.frees.Add(1)
	c.slots = append(c.slots, gid)
	if len(c.slots) > cacheCap {
		p.freeMu.Lock()
		n := len(c.slots)
		p.freeList = append(p.freeList, c.slots[n-refillBatch:]...)
		p.freeMu.Unlock()
		c.slots = c.slots[:n-refillBatch]
	}
}

// FreeBatches frees every handle in every batch under Free's lifecycle
// rules, with at most one acquisition of the global free-list lock for all
// batches together instead of one potential freeMu round-trip per slot.
// The reclamation scans use it to return a mix of whole-bucket handle
// arrays and a residual batch without first copying them into one slice.
func (p *Pool[T]) FreeBatches(tid int, batches ...[]Handle) {
	total := 0
	for _, hs := range batches {
		total += len(hs)
	}
	if total == 0 {
		return
	}
	c := &p.caches[tid]
	for _, hs := range batches {
		for _, h := range hs {
			c.slots = append(c.slots, p.release(h))
		}
	}
	c.frees.Add(uint64(total))
	if len(c.slots) > cacheCap {
		// Spill down to the same low-water mark Free's per-slot hysteresis
		// converges to, in one critical section.
		spill := len(c.slots) - (cacheCap - refillBatch)
		p.freeMu.Lock()
		p.freeList = append(p.freeList, c.slots[len(c.slots)-spill:]...)
		p.freeMu.Unlock()
		c.slots = c.slots[:len(c.slots)-spill]
	}
}

// Get returns the body of the slot addressed by h; marks and packed epoch
// are ignored. Get panics on a nil handle. Get does not check the slot
// state: like a C pointer dereference, reading a freed slot "works" and
// returns whatever is there now — that's the point. Builds with the
// ibrdebug tag trade that fidelity for assertions: Get panics on a freed
// slot or on a stale packed birth epoch (see debugCheck).
func (p *Pool[T]) Get(h Handle) *T {
	p.debugCheck(h)
	return p.get(h)
}

// get is Get without the ibrdebug assertion. release poisons through it (the
// slot is already Free by then), and the allocator's own tests use it to
// inspect freed bodies.
func (p *Pool[T]) get(h Handle) *T {
	gid, ok := h.Slot()
	if !ok {
		panic("mem: Get of nil handle")
	}
	slabs := *p.slabs.Load()
	return &slabs[gid>>slabShift].slots[gid&slabMask].body
}

func (p *Pool[T]) hdr(h Handle) *Header {
	gid, ok := h.Slot()
	if !ok {
		panic("mem: header of nil handle")
	}
	slabs := *p.slabs.Load()
	return &slabs[gid>>slabShift].slots[gid&slabMask].hdr
}

// Birth returns the birth epoch recorded in h's block header.
func (p *Pool[T]) Birth(h Handle) uint64 { return p.hdr(h).birth.Load() }

// SetBirth stamps h's birth epoch; called by schemes at allocation.
func (p *Pool[T]) SetBirth(h Handle, e uint64) { p.hdr(h).birth.Store(e) }

// RetireEpoch returns the retire epoch in h's header (MaxUint64 while live).
func (p *Pool[T]) RetireEpoch(h Handle) uint64 { return p.hdr(h).retire.Load() }

// SetRetireEpoch stamps h's retire epoch; called by schemes at retirement.
func (p *Pool[T]) SetRetireEpoch(h Handle, e uint64) { p.hdr(h).retire.Store(e) }

// MarkRetired transitions h from Live to Retired, panicking on a retire of a
// non-live block (retire-before-detach misuse or double retire).
func (p *Pool[T]) MarkRetired(h Handle) {
	if !p.hdr(h).state.CompareAndSwap(uint32(StateLive), uint32(StateRetired)) {
		panic(fmt.Sprintf("mem: retire of non-live %v (state %v)", h, p.State(h)))
	}
}

// State returns the lifecycle state of h's slot.
func (p *Pool[T]) State(h Handle) State { return State(p.hdr(h).state.Load()) }

// Stamp returns h's reuse stamp: it increments on every Free, so a changed
// stamp proves the slot was recycled under the caller.
func (p *Pool[T]) Stamp(h Handle) uint64 { return p.hdr(h).stamp.Load() }

// Stats is a snapshot of allocator counters.
type Stats struct {
	Allocs    uint64 // total successful Allocs
	Frees     uint64 // total Frees
	HighWater uint64 // slots ever touched (bump pointer)
	Capacity  uint64
	Slabs     int

	// Free-list cache behaviour, summed over threads (per-thread detail
	// via CacheStats): an Alloc either hits its thread cache or misses and
	// refills — from the global free list (GlobalRefills) or by carving
	// never-used slots (FreshCarves). A rising miss or refill rate under a
	// steady workload means frees are landing on other threads' caches —
	// the cross-thread producer/consumer pattern jemalloc calls remote
	// frees.
	CacheHits     uint64
	CacheMisses   uint64
	GlobalRefills uint64
	FreshCarves   uint64
}

// Live returns Allocs - Frees: slots currently Live or Retired.
func (s Stats) Live() uint64 { return s.Allocs - s.Frees }

// Stats gathers per-thread counters. It is approximate while threads run.
func (p *Pool[T]) Stats() Stats {
	var st Stats
	for i := range p.caches {
		c := &p.caches[i]
		st.Allocs += c.allocs.Load()
		st.Frees += c.frees.Load()
		st.CacheHits += c.cacheHits.Load()
		st.CacheMisses += c.cacheMisses.Load()
		st.GlobalRefills += c.globalRefills.Load()
		st.FreshCarves += c.freshCarves.Load()
	}
	hw := p.next.Load()
	if hw > p.maxSlots {
		hw = p.maxSlots
	}
	st.HighWater = hw
	st.Capacity = p.maxSlots
	st.Slabs = len(*p.slabs.Load())
	return st
}

// CacheStats is one thread's free-list cache counters.
type CacheStats struct {
	Allocs        uint64
	Frees         uint64
	CacheHits     uint64
	CacheMisses   uint64
	GlobalRefills uint64
	FreshCarves   uint64
}

// CacheStats snapshots every thread cache's counters, indexed by tid. Like
// Stats it is approximate while threads run.
func (p *Pool[T]) CacheStats() []CacheStats {
	out := make([]CacheStats, len(p.caches))
	for i := range p.caches {
		c := &p.caches[i]
		out[i] = CacheStats{
			Allocs:        c.allocs.Load(),
			Frees:         c.frees.Load(),
			CacheHits:     c.cacheHits.Load(),
			CacheMisses:   c.cacheMisses.Load(),
			GlobalRefills: c.globalRefills.Load(),
			FreshCarves:   c.freshCarves.Load(),
		}
	}
	return out
}

// CheckEpochRange panics if e no longer fits the packed-epoch field; the
// TagIBR-WCAS scheme calls it so that a (pathological, >16M-epoch) run fails
// loudly instead of wrapping silently. See DESIGN.md substitution #3.
func CheckEpochRange(e uint64) {
	if e > MaxPackedEpoch {
		panic(fmt.Sprintf("mem: epoch %d overflows the %d-bit packed field used by TagIBR-WCAS", e, EpochBits))
	}
}

// Census counts slots by lifecycle state across the pool's touched region.
// It is approximate while threads run and exact at quiescence; tests and
// leak reports use it to see *where* memory stands, not just how much.
type Census struct {
	Free    uint64
	Live    uint64
	Retired uint64
}

// Census scans every slot ever touched and tallies states.
func (p *Pool[T]) Census() Census {
	var c Census
	slabs := *p.slabs.Load()
	hw := p.next.Load()
	if hw > p.maxSlots {
		hw = p.maxSlots
	}
	for gid := uint64(0); gid < hw; gid++ {
		st := State(slabs[gid>>slabShift].slots[gid&slabMask].hdr.state.Load())
		switch st {
		case StateLive:
			c.Live++
		case StateRetired:
			c.Retired++
		default:
			c.Free++
		}
	}
	return c
}
