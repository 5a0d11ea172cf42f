package server

import (
	"sync"
	"time"
)

// TTL expiry. Each shard owns one expiryWheel: a classic timing wheel of
// wheelSlots buckets, each covering one granularity-sized tick of wall
// time, plus an authoritative table mapping armed keys to their deadline
// and a sequence number. The wheel answers "which keys lapsed since the
// last look?" in time proportional to the ticks crossed plus the entries
// due — the remediator polls it every RemedyInterval and removes the due
// batch itself under the shard's tid 0, borrowed with Lock, so the removals
// (and their retirements) happen under a locked tid like all structure
// work.
//
// Consistency model, deliberately weak and cheap: the table is the truth
// and wheel entries are hints. Arming bumps the sequence number, so a
// cancelled or re-armed key's stale wheel entry fails its seq check at
// collection and is dropped. The one acknowledged race: between the
// remediator collecting a due key and executing the removal, a client can
// Del+Put the key; the expiry then removes the new value up to one tick
// early. Serving-grade TTL semantics (memcached's, Redis's)
// accept exactly this window rather than pay for per-op coordination.
const wheelSlots = 64

// expEntry is one armed expiry hint: a key and the arm-time sequence
// number that validates it against the table.
type expEntry struct {
	key uint64
	seq uint64
}

// expRecord is the table's authoritative per-key state.
type expRecord struct {
	deadline int64 // UnixNano
	seq      uint64
}

type expiryWheel struct {
	mu       sync.Mutex
	gran     int64 // slot width in nanoseconds
	lastTick int64 // last collected tick (deadline / gran)
	seq      uint64
	table    map[uint64]expRecord
	slots    [wheelSlots][]expEntry
}

// newExpiryWheel builds a wheel with the given slot width; now anchors the
// collection clock so entries armed before the first collect are not seen
// as a full revolution old.
func newExpiryWheel(gran time.Duration, now int64) *expiryWheel {
	g := gran.Nanoseconds()
	if g <= 0 {
		g = 1
	}
	return &expiryWheel{
		gran:     g,
		lastTick: now / g,
		table:    make(map[uint64]expRecord),
	}
}

// schedule arms (or re-arms) key to lapse at deadline. Called on a
// successful TTL-Put.
func (w *expiryWheel) schedule(key uint64, deadline int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	w.table[key] = expRecord{deadline: deadline, seq: w.seq}
	tick := deadline / w.gran
	if tick <= w.lastTick {
		// The deadline's slot was already collected this revolution; park
		// the entry in the next tick to be looked at, or it would hide for
		// a full wheel turn.
		tick = w.lastTick + 1
	}
	w.slots[int(tick%wheelSlots)] = append(w.slots[int(tick%wheelSlots)], expEntry{key: key, seq: w.seq})
}

// cancel disarms key's expiry. Called on a successful Del or a successful
// TTL-less Put; the key's wheel entry, if any, dies at its seq check.
func (w *expiryWheel) cancel(key uint64) {
	w.mu.Lock()
	delete(w.table, key)
	w.mu.Unlock()
}

// collectDue appends every entry that lapsed by now to due and returns it.
// Collected keys are disarmed (removed from the table) — the caller owns
// their removal from here. Entries whose slot the clock crossed but whose
// deadline is still ahead (wheel wrap: armed more than a revolution out)
// are re-queued for a later tick.
func (w *expiryWheel) collectDue(now int64, due []expEntry) []expEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	cur := now / w.gran
	if cur <= w.lastTick {
		return due
	}
	// Crossing more than a full revolution visits every slot once; going
	// around again would rescan survivors for nothing.
	from := w.lastTick + 1
	if cur-from >= wheelSlots {
		from = cur - wheelSlots + 1
	}
	for t := from; t <= cur; t++ {
		si := int(t % wheelSlots)
		slot := w.slots[si]
		w.slots[si] = slot[:0]
		for _, en := range slot {
			rec, ok := w.table[en.key]
			if !ok || rec.seq != en.seq {
				continue // cancelled or re-armed; the live entry is elsewhere
			}
			if rec.deadline <= now {
				delete(w.table, en.key)
				due = append(due, en)
				continue
			}
			// Not yet due. Two cases, told apart by the deadline's own tick.
			// If that tick is still ahead of the clock, the entry is armed ≥
			// one revolution out (wheel wrap) and its slot comes around
			// again: leave it where it is. But if the tick was just crossed
			// (a deadline later within this tick than the poll, or an entry
			// parked into a crossed slot by schedule), this slot will not be
			// revisited for a full revolution — park it in the next tick to
			// be collected, mirroring schedule()'s already-collected-tick
			// handling, so it lapses on the next poll instead of ~one wheel
			// turn late. Appending to the slice we are compacting is safe —
			// the write index never passes the read index — and the parked
			// slot is either past this pass's range or already compacted.
			if rec.deadline/w.gran <= cur {
				ni := int((cur + 1) % wheelSlots)
				w.slots[ni] = append(w.slots[ni], en)
			} else {
				w.slots[si] = append(w.slots[si], en)
			}
		}
	}
	w.lastTick = cur
	return due
}

// requeue re-arms the entries of an expiry batch that a panic cut short.
// collectDue already disarmed them, so without this they would silently
// never expire. Each key is re-armed as due-now and parked in the next
// tick to be collected; a key the table knows again (re-armed by a client
// Put in the meantime) keeps its newer record — the newer arm wins. The
// residual race — the panicking removal had already removed the key and a
// client re-Put it TTL-less before requeue runs — can expire the new value
// one tick early, the same acknowledged window the collect/execute gap has.
func (w *expiryWheel) requeue(entries []expEntry, now int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, en := range entries {
		if _, ok := w.table[en.key]; ok {
			continue
		}
		w.seq++
		w.table[en.key] = expRecord{deadline: now, seq: w.seq}
		si := int((w.lastTick + 1) % wheelSlots)
		w.slots[si] = append(w.slots[si], expEntry{key: en.key, seq: w.seq})
	}
}

// pending returns how many keys are currently armed.
func (w *expiryWheel) pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.table)
}
