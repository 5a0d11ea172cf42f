package core

// store.go: birth-epoch bucketed, structure-of-arrays storage for retired
// blocks. Every thread's retire backlog lives in a retireStore: buckets
// keyed by birth-epoch range (key = birth >> bucketShift), each holding its
// blocks' handles, birth epochs and retire epochs in three parallel arrays.
//
// The layout exists for the scans:
//
//   - The birth range of a bucket is bounded (its key fixes birth to a
//     2^shift-epoch window, and birthLo/birthHi track the exact bounds), and
//     within a bucket the retire epochs are sorted ascending (appends come
//     from a monotone global clock). The conflict test of Fig. 5 —
//     ∃ interval: birth <= hi && retire >= lo — is monotone in the block's
//     lifetime corner (a smaller birth or a larger retire can only add
//     conflicts), so ONE corner test decides a whole bucket: if the
//     most-protectable corner (birthHi, firstRetire) is
//     unprotected-by-every-interval... see the two corner lemmas on
//     scanSummarized in api.go.
//   - The residual per-block sweep inside a bucket is a linear pass over
//     packed []uint64 cache lines, not struct loads.
//
// The live window of a bucket is [start, len): EBR-style prefix frees
// advance start instead of memmoving the survivors, and maybeCompact
// re-rightsizes the arrays when the dead capacity (freed prefix plus append
// slack) dwarfs the live remainder — the fix for stall-grown backing arrays
// staying pinned after a quarantine drain.

import (
	"sort"

	"ibr/internal/mem"
)

// defaultBucketShift sets the birth-epoch width of one bucket to
// 2^5 = 32 epochs. At the paper's EpochFreq=150 cadence a bucket then spans
// ~4800 allocations per advancing thread — big enough that corner tests
// amortize, small enough that a reservation window only straddles a few
// buckets.
const defaultBucketShift = 5

// Compaction gates: a bucket's arrays are reallocated to the live size when
// the capacity is at least storeCompactMin slots and at least
// storeCompactFactor times the live count. Below storeCompactMin the waste
// is bounded and not worth the copy.
const (
	storeCompactMin    = 1024
	storeCompactFactor = 4
)

// retireBucket is one birth-epoch bucket. handles, births and retires are
// parallel arrays; [start, len) is the live window; retires is sorted
// ascending over the live window.
type retireBucket struct {
	key     uint64 // birth >> bucketShift
	birthLo uint64 // min birth over live entries (conservative after frees)
	birthHi uint64 // max birth over live entries (conservative after frees)
	start   int
	handles []mem.Handle
	births  []uint64
	retires []uint64
}

// live returns the number of live entries.
func (bk *retireBucket) live() int { return len(bk.retires) - bk.start }

// firstRetire/lastRetire bound the live retire epochs (retires is sorted).
// Both require live() > 0.
func (bk *retireBucket) firstRetire() uint64 { return bk.retires[bk.start] }
func (bk *retireBucket) lastRetire() uint64  { return bk.retires[len(bk.retires)-1] }

// truncate shrinks the live window's upper end to w (entries [w, len) were
// freed or moved down by an in-place sweep).
func (bk *retireBucket) truncate(w int) {
	bk.handles = bk.handles[:w]
	bk.births = bk.births[:w]
	bk.retires = bk.retires[:w]
}

// maybeCompact reallocates the arrays to the live size when the dead
// capacity (freed prefix + append slack) exceeds the compaction gates, so a
// stall-grown backing array does not stay pinned after its backlog drains.
func (bk *retireBucket) maybeCompact() {
	n := bk.live()
	if cap(bk.retires) < storeCompactMin || cap(bk.retires) < storeCompactFactor*n {
		return
	}
	h := make([]mem.Handle, n)
	b := make([]uint64, n)
	r := make([]uint64, n)
	copy(h, bk.handles[bk.start:])
	copy(b, bk.births[bk.start:])
	copy(r, bk.retires[bk.start:])
	bk.handles, bk.births, bk.retires = h, b, r
	bk.start = 0
}

// retireStore is one thread's bucketed retire backlog. buckets is sorted by
// key; count is the total live entries across buckets. A single spare array
// set is recycled from the most recently emptied bucket so steady-state
// bucket churn (one bucket born and drained every 2^shift epochs) does not
// allocate three slices per generation.
type retireStore struct {
	buckets []retireBucket
	count   int
	hint    int // index of the bucket the last add landed in

	spareH []mem.Handle
	spareB []uint64
	spareR []uint64
}

// add appends one retired block. retire must be >= every live retire epoch
// already in its bucket (true for owner appends under a monotone clock).
func (st *retireStore) add(h mem.Handle, birth, retire uint64, shift uint) {
	key := birth >> shift
	bi := st.hint
	if bi >= len(st.buckets) || st.buckets[bi].key != key {
		i := sort.Search(len(st.buckets), func(i int) bool { return st.buckets[i].key >= key })
		if i == len(st.buckets) || st.buckets[i].key != key {
			st.buckets = append(st.buckets, retireBucket{})
			copy(st.buckets[i+1:], st.buckets[i:])
			nb := retireBucket{key: key, birthLo: birth, birthHi: birth}
			if st.spareR != nil {
				nb.handles, nb.births, nb.retires = st.spareH[:0], st.spareB[:0], st.spareR[:0]
				st.spareH, st.spareB, st.spareR = nil, nil, nil
			}
			st.buckets[i] = nb
		}
		bi = i
		st.hint = i
	}
	bk := &st.buckets[bi]
	if birth < bk.birthLo {
		bk.birthLo = birth
	}
	if birth > bk.birthHi {
		bk.birthHi = birth
	}
	bk.handles = append(bk.handles, h)
	bk.births = append(bk.births, birth)
	bk.retires = append(bk.retires, retire)
	st.count++
}

// recycle stashes an emptied bucket's arrays as the spare set (keeping the
// largest, but never one above storeCompactMin — a stall-grown array held as
// spare would be the same heap retention the compaction gates exist to
// prevent). The arrays may still be aliased by a pending whole-bucket free
// slice; that is safe because the store's owner finishes the scan (and the
// FreeBatches read) before its next add can touch the spare.
func (st *retireStore) recycle(bk *retireBucket) {
	if c := cap(bk.retires); c > cap(st.spareR) && c <= storeCompactMin {
		st.spareH, st.spareB, st.spareR = bk.handles[:0], bk.births[:0], bk.retires[:0]
	}
	bk.handles, bk.births, bk.retires = nil, nil, nil
}

// corners returns the global lifetime corners over all live entries:
// the minimum/maximum birth and the minimum/maximum retire epoch. Requires
// count > 0.
func (st *retireStore) corners() (birthLo, birthHi, retLo, retHi uint64) {
	birthLo, retLo = ^uint64(0), ^uint64(0)
	for i := range st.buckets {
		bk := &st.buckets[i]
		if bk.live() == 0 {
			continue
		}
		if bk.birthLo < birthLo {
			birthLo = bk.birthLo
		}
		if bk.birthHi > birthHi {
			birthHi = bk.birthHi
		}
		if f := bk.firstRetire(); f < retLo {
			retLo = f
		}
		if l := bk.lastRetire(); l > retHi {
			retHi = l
		}
	}
	return birthLo, birthHi, retLo, retHi
}

// takeAll removes every live entry and returns them sorted by retire epoch
// (Hyaline's seal; buckets keep per-bucket order only, so a cross-bucket
// sort restores the global order the batch handoff wants).
func (st *retireStore) takeAll() []retiredBlock {
	out := make([]retiredBlock, 0, st.count)
	for i := range st.buckets {
		bk := &st.buckets[i]
		for k := bk.start; k < len(bk.retires); k++ {
			out = append(out, retiredBlock{h: bk.handles[k], birth: bk.births[k], retire: bk.retires[k]})
		}
		st.recycle(bk)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].retire < out[j].retire })
	st.buckets = st.buckets[:0]
	st.count = 0
	st.hint = 0
	return out
}

// snapshot returns a copy of every live entry sorted by retire epoch,
// without modifying the store (tests and diagnostics).
func (st *retireStore) snapshot() []retiredBlock {
	out := make([]retiredBlock, 0, st.count)
	for i := range st.buckets {
		bk := &st.buckets[i]
		for k := bk.start; k < len(bk.retires); k++ {
			out = append(out, retiredBlock{h: bk.handles[k], birth: bk.births[k], retire: bk.retires[k]})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].retire < out[j].retire })
	return out
}

// heldCap reports the total backing-array capacity (in entries) the store
// pins, including dead prefixes and append slack — the heap-retention
// metric the compaction regression test asserts on.
func (st *retireStore) heldCap() int {
	n := cap(st.spareR)
	for i := range st.buckets {
		n += cap(st.buckets[i].retires)
	}
	return n
}
