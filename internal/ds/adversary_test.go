package ds

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"ibr/internal/core"
	"ibr/internal/guard"
	"ibr/internal/mem"
)

// The traversal adversary: a deterministic schedule that runs a burst of
// another thread's work at each point of one operation where the
// operation's protection can shrink, so every window in which a
// reclamation bug could free a node under a traversal is opened on every
// run instead of by scheduling luck.

const (
	advVictim  = 0 // the tid whose operation is under test
	advBurst   = 1 // the tid the burst runs on
	advThreads = 2
)

// adversary wraps a structure's scheme (installed through newScheme). While
// armed it counts the victim's protection points, the calls after which
// its protection can be narrower than before (StartOp, Read, ReadRoot,
// TransferSlot, RestartOp, and EndOp, after which it protects nothing),
// and runs burst on the victim's goroutine right after the at-th. It also
// drains the victim's retire list right after each of the victim's
// Retires: only the victim scans that list, from its own Retire, so that
// is the earliest point a real run could free what the victim retired.
type adversary struct {
	core.Scheme
	armed  bool
	points int
	at     int
	burst  func()
}

func (a *adversary) point(tid int) {
	if !a.armed || tid != advVictim {
		return
	}
	if a.points++; a.points == a.at {
		a.burst()
	}
}

func (a *adversary) StartOp(tid int) { a.Scheme.StartOp(tid); a.point(tid) }

func (a *adversary) EndOp(tid int) { a.Scheme.EndOp(tid); a.point(tid) }

func (a *adversary) RestartOp(tid int) { a.Scheme.RestartOp(tid); a.point(tid) }

func (a *adversary) Read(tid, idx int, p *core.Ptr) mem.Handle {
	h := a.Scheme.Read(tid, idx, p)
	a.point(tid)
	return h
}

func (a *adversary) ReadRoot(tid, idx int, p *core.Ptr) mem.Handle {
	h := a.Scheme.ReadRoot(tid, idx, p)
	a.point(tid)
	return h
}

func (a *adversary) TransferSlot(tid, from, to int) {
	a.Scheme.TransferSlot(tid, from, to)
	a.point(tid)
}

func (a *adversary) Retire(tid int, h mem.Handle) {
	a.Scheme.Retire(tid, h)
	if a.armed && tid == advVictim {
		a.Scheme.Drain(tid)
	}
}

// advMu serializes the runs' swaps of newScheme; the runs themselves go in
// parallel.
var advMu sync.Mutex

// advKeys is the map every run starts from, in ascending order; advVal is
// each key's value.
var advKeys = []uint64{10, 20, 30, 40, 50, 60, 70, 80}

func advVal(k uint64) uint64 { return 3*k + 1 }

// advOp is one victim operation. key is the key the burst works beside: it
// inserts key-1 and key+1, removes lo and hi (the nearest keys of advKeys
// below and above key), removes key-1 and key+1 again and drains every tid
// but the victim's. A half burst takes key+1, and every other key of
// advKeys left, only half way (halfRemover), the highest first so that no
// half removal's traversal finishes another. key itself is never touched,
// so each op has one right answer whatever point the burst lands on.
type advOp struct {
	name string
	key  uint64
	// run performs the op on the victim's tid and checks its result, given
	// the keys untouched by the burst and the keys it may have touched.
	run func(m Map, kept, touched map[uint64]bool) error
}

var advOps = []advOp{
	{"insert", 45, func(m Map, _, _ map[uint64]bool) error {
		if !m.Insert(advVictim, 45, advVal(45)) {
			return fmt.Errorf("Insert(45) = false, want true")
		}
		return nil
	}},
	{"remove", 40, func(m Map, _, _ map[uint64]bool) error {
		if !m.Remove(advVictim, 40) {
			return fmt.Errorf("Remove(40) = false, want true")
		}
		return nil
	}},
	{"get", 40, func(m Map, _, _ map[uint64]bool) error {
		if v, ok := m.Get(advVictim, 40); !ok || v != advVal(40) {
			return fmt.Errorf("Get(40) = (%d, %v), want (%d, true)", v, ok, advVal(40))
		}
		return nil
	}},
	// Range holds ds.Ranger's contract: every key the burst did not touch
	// exactly once, ascending, with its value; a touched key at most once.
	{"range", 40, func(m Map, kept, touched map[uint64]bool) error {
		var got []uint64
		var err error
		m.(Ranger).Range(advVictim, 0, 100, func(k, v uint64) bool {
			switch {
			case len(got) > 0 && k <= got[len(got)-1]:
				err = fmt.Errorf("Range gave %d after %d", k, got[len(got)-1])
			case !kept[k] && !touched[k]:
				err = fmt.Errorf("Range gave key %d, which was never inserted", k)
			case v != advVal(k):
				err = fmt.Errorf("Range gave %d→%d, want %d", k, v, advVal(k))
			}
			got = append(got, k)
			return err == nil
		})
		if err != nil {
			return err
		}
		seen := map[uint64]bool{}
		for _, k := range got {
			seen[k] = true
		}
		for k := range kept {
			if !seen[k] {
				return fmt.Errorf("Range missed untouched key %d (got %v)", k, got)
			}
		}
		return nil
	}},
}

// advRun builds a fresh map, runs op with the burst (a half burst if half)
// after the victim's at-th protection point (before the op for at 0, never
// for at < 0), and checks the op's result and the quiescent map. It
// returns the number of protection points the victim passed. A panic, such
// as the ibrdebug build's on a read of a freed slot, is returned as the
// error.
func advRun(structure, scheme string, op advOp, at int, half bool) (points int, err error) {
	var adv *adversary
	advMu.Lock()
	prev := newScheme
	newScheme = func(name string, m core.Memory, o core.Options) (core.Scheme, error) {
		s, err := prev(name, m, o)
		if err != nil {
			return nil, err
		}
		adv = &adversary{Scheme: s, at: at}
		return adv, nil
	}
	cfg := Config{
		Scheme:  scheme,
		Core:    core.Options{Threads: advThreads, EpochFreq: 1},
		Buckets: 1, // the hash map's keys share one chain, as the list's do
		Poison:  true,
		// A run's nodes fit many times over; the pool's one slab stops at
		// the cap, so building a map per run stays cheap.
		PoolSlots: 1 << 12,
	}
	m, err := NewMap(structure, cfg)
	newScheme = prev
	advMu.Unlock()
	if err != nil {
		return 0, err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fill := make([]KV, len(advKeys))
	for i, k := range advKeys {
		fill[i] = KV{k, advVal(k)}
	}
	m.Fill(fill)

	kept, touched := map[uint64]bool{}, map[uint64]bool{}
	lo, hi := uint64(0), uint64(0)
	for _, k := range advKeys {
		switch {
		case k < op.key:
			lo = k
		case k > op.key && hi == 0:
			hi = k
		}
	}
	fresh := []uint64{op.key - 1, op.key + 1}
	removed := append([]uint64{lo, hi}, fresh...)
	var pending []uint64 // half-removed, highest first
	if half {
		removed = removed[:3]
		pending = append(pending, op.key+1)
		for _, k := range advKeys {
			if k != op.key && k != lo && k != hi {
				pending = append(pending, k)
			}
		}
		slices.Sort(pending)
		slices.Reverse(pending)
	}
	touch := append(append([]uint64{}, removed...), pending...)
	var burstErr error
	ran := false
	adv.burst = func() {
		ran = true
		for _, k := range fresh {
			if !m.Insert(advBurst, k, advVal(k)) {
				burstErr = fmt.Errorf("burst: Insert(%d) = false", k)
			}
		}
		for _, k := range removed {
			if !m.Remove(advBurst, k) {
				burstErr = fmt.Errorf("burst: Remove(%d) = false", k)
			}
		}
		for _, k := range pending {
			m.(halfRemover).halfRemove(advBurst, k)
		}
		for tid := 0; tid < advThreads; tid++ {
			if tid != advVictim {
				adv.Scheme.Drain(tid)
			}
		}
	}
	for _, k := range advKeys {
		kept[k] = true
	}
	if at >= 0 {
		for _, k := range touch {
			delete(kept, k)
			touched[k] = true
		}
	}

	adv.armed = true
	if at == 0 {
		adv.burst()
	}
	err = op.run(m, kept, touched)
	adv.armed = false
	switch {
	case err != nil:
		return adv.points, err
	case burstErr != nil:
		return adv.points, burstErr
	case at >= 0 && !ran:
		return adv.points, fmt.Errorf("the op passed %d protection points, so no burst ran at %d", adv.points, at)
	}

	// The op's effect on the model, then the quiescent checks.
	switch op.name {
	case "insert":
		kept[op.key] = true
	case "remove":
		delete(kept, op.key)
	}
	if at >= 0 {
		for _, k := range pending {
			m.Remove(advBurst, k) // finish a half removal the op left behind
		}
	}
	if sl, ok := m.(*SkipList); ok {
		sl.Sweep(advBurst)
	}
	core.DrainAll(adv, advThreads)
	keys := m.Keys()
	if len(keys) != len(kept) {
		return adv.points, fmt.Errorf("Keys() = %v, want the %d keys %v", keys, len(kept), kept)
	}
	for _, k := range keys {
		if !kept[k] {
			return adv.points, fmt.Errorf("Keys() = %v, want %v", keys, kept)
		}
	}
	if scheme != "none" {
		if live, want := m.(Instrumented).PoolStats().Live(), expectedNodes(structure, len(kept)); live != want {
			return adv.points, fmt.Errorf("%d live slots after DrainAll, want %d", live, want)
		}
	}
	if v, ok := m.(interface{ Validate() error }); ok {
		return adv.points, v.Validate()
	}
	return adv.points, nil
}

// TestAdversary runs every op of every map structure under every scheme
// SchemeSupports allows, once per protection point the op passes with a
// burst at that point and, where the structure has a logical delete, once
// with a half burst (and once each with them before the op). Under -tags
// ibrdebug a read of a freed slot panics; in either build a freed node
// shows as a poisoned key or value, a wrong result or a leak.
func TestAdversary(t *testing.T) {
	for _, structure := range mapStructures {
		for _, scheme := range core.Names() {
			if !SchemeSupports(scheme, structure) {
				continue
			}
			t.Run(structure+"/"+scheme, func(t *testing.T) {
				m := newTestMap(t, structure, scheme, 1) // before any run swaps newScheme
				_, ranger := m.(Ranger)
				halves := []bool{false}
				if _, ok := m.(halfRemover); ok {
					halves = append(halves, true)
				}
				t.Parallel()
				for _, op := range advOps {
					if op.name == "range" && !ranger {
						continue
					}
					n, err := advRun(structure, scheme, op, -1, false)
					if err != nil {
						t.Fatalf("%s: dry run: %v", op.name, err)
					}
				points:
					for at := 0; at <= n; at++ {
						for _, half := range halves {
							if _, err := advRun(structure, scheme, op, at, half); err != nil {
								t.Errorf("%s, burst (half %v) after protection point %d of %d: %v", op.name, half, at, n, err)
								break points
							}
						}
					}
				}
			})
		}
	}
}

// halfRemover is a structure whose removal starts with a logical delete.
// halfRemove marks a present key deleted and leaves the unlink, and the
// retirement that goes with it, to the next traversal that passes: the
// state a remover leaves when it loses its unlink race. After a half burst
// the victim's own traversal unlinks and retires nodes, or helps a stalled
// delete retire them, the paths on which an op retires more than one node
// and may retire one it never read. The half burst is a second burst, not
// part of the first: a victim whose window sits behind a half-removed node
// restarts from the head before it touches anything the burst freed.
type halfRemover interface{ halfRemove(tid int, key uint64) }

func (l *List) halfRemove(tid int, key uint64) { l.listCore.halfRemove(tid, &l.head, key) }

func (m *HashMap) halfRemove(tid int, key uint64) { m.listCore.halfRemove(tid, m.bucket(key), key) }

func (lc *listCore) halfRemove(tid int, head *core.Ptr, key uint64) {
	lc.w.Do(tid, func(g *guard.Guard[listNode]) {
		fails := 0
		g.Deref(lc.find(g, head, key, &fails).curr).next.FetchOrMarks(mem.Mark0Bit)
	})
}

func (sl *SkipList) halfRemove(tid int, key uint64) {
	sl.w.Do(tid, func(g *guard.Guard[slNode]) {
		var preds [MaxLevel]*core.Ptr
		var succs [MaxLevel]mem.Handle
		fails := 0
		sl.find(g, key, &preds, &succs, &fails)
		n := g.Deref(succs[0])
		for l := int(n.topLevel) - 1; l >= 0; l-- {
			n.next[l].FetchOrMarks(mem.Mark0Bit)
		}
	})
}

// halfRemove flags the edge to key's leaf and tags its sibling's edge: a
// delete injected, stalled after the first step of its cleanup. A later op
// whose own edge is the tagged one helps it, retiring a leaf it never read.
func (t *NMTree) halfRemove(tid int, key uint64) {
	t.w.Do(tid, func(g *guard.Guard[nmNode]) {
		par := g.Deref(t.seek(g, key).parent)
		child, sib := childOf(par, key), &par.left
		if child == &par.left {
			sib = &par.right
		}
		child.FetchOrMarks(mem.Mark0Bit)
		sib.FetchOrMarks(mem.Mark1Bit)
	})
}
