// Package guard is the misuse-resistant facade over the IBR reservation
// protocol (internal/core + internal/mem): Guarded[T].Do brackets an
// operation with StartOp/EndOp, and the Guard it passes to the closure is
// the only way to touch handles inside the bracket — protected loads,
// dereferences, publishes, and retires all go through it, so the bracket
// and the per-call protocol discipline cannot drift apart.
//
// The division of labor with the checks: TestProtocolBoundary
// (boundary_test.go) keeps every package outside internal/core,
// internal/mem and this one, and the benchmark module, on the facade. How a
// structure uses these methods is checked by running it: internal/ds's
// traversal adversary puts another thread's removals and a scan at every
// point of an operation where its protection can shrink, and the ibrdebug
// build turns a read of a freed slot into a panic. The facade's own
// implementation is checked at runtime too: TestGuardDoBracket proves Do
// withdraws its reservation on every exit, and core's TestBirthEpochStamped
// proves the Scheme.Alloc that Alloc delegates to stamps the birth epoch.
//
// Do allocates nothing: each tid owns one preallocated Guard, and Do hands
// out a pointer to it. A tid is used by one goroutine at a time, so its
// Guard is never shared between live brackets.
//
// With the ibrdebug build tag each Guard also carries an active flag, so a
// Guard captured and used outside its Do bracket panics deterministically
// instead of racing reclamation.
package guard

import (
	"ibr/internal/core"
	"ibr/internal/mem"
)

// Guarded wraps a scheme and its pool for one node type. It is the
// long-lived half of the facade: data structures hold a *Guarded[T] and
// open brackets on it with Do.
type Guarded[T any] struct {
	s      core.Scheme
	pool   *mem.Pool[T]
	guards []Guard[T] // one per tid, sized from pool.Threads()
}

// New builds the facade over an existing scheme/pool pair.
func New[T any](s core.Scheme, pool *mem.Pool[T]) *Guarded[T] {
	w := &Guarded[T]{s: s, pool: pool, guards: make([]Guard[T], pool.Threads())}
	for tid := range w.guards {
		w.guards[tid] = Guard[T]{s: s, pool: pool, tid: tid}
	}
	return w
}

// Scheme exposes the underlying scheme for stats and draining.
func (w *Guarded[T]) Scheme() core.Scheme { return w.s }

// Pool exposes the underlying allocator for stats.
func (w *Guarded[T]) Pool() *mem.Pool[T] { return w.pool }

// Do runs fn inside a StartOp/EndOp reservation bracket for tid. The Guard
// is valid only until fn returns; under the ibrdebug tag, retaining and
// using it afterwards panics (unless a later bracket of the same tid is
// open, which protects it again).
func (w *Guarded[T]) Do(tid int, fn func(g *Guard[T])) {
	g := &w.guards[tid]
	g.enter()
	w.s.StartOp(tid)
	defer g.exit()
	defer w.s.EndOp(tid)
	fn(g)
}

// Guard is the in-bracket capability: every protocol touch point on
// handles, scoped to one operation of one thread.
type Guard[T any] struct {
	s    core.Scheme
	pool *mem.Pool[T]
	tid  int
	debugState
}

// Tid returns the thread id the bracket was opened for.
func (g *Guard[T]) Tid() int { return g.tid }

// Load performs a protected pointer load into protection slot.
func (g *Guard[T]) Load(slot int, p *core.Ptr) mem.Handle {
	g.check()
	return g.s.Read(g.tid, slot, p)
}

// LoadRoot is Load for a structure's root pointer (POIBR snapshots it).
func (g *Guard[T]) LoadRoot(slot int, p *core.Ptr) mem.Handle {
	g.check()
	return g.s.ReadRoot(g.tid, slot, p)
}

// TransferSlot moves the protection in slot from to slot to, for HP/HE
// traversals whose node roles shift (the Natarajan–Mittal seek). A no-op
// under every other scheme.
func (g *Guard[T]) TransferSlot(from, to int) {
	g.check()
	g.s.TransferSlot(g.tid, from, to)
}

// Deref returns the node a protected handle designates.
func (g *Guard[T]) Deref(h mem.Handle) *T {
	g.check()
	return g.pool.Get(h)
}

// Publish stores h into the shared pointer p through the scheme (TagIBR
// variants raise the pointer's born-before tag).
func (g *Guard[T]) Publish(p *core.Ptr, h mem.Handle) {
	g.check()
	g.s.Write(g.tid, p, h)
}

// CompareAndSwap conditionally publishes new into p.
func (g *Guard[T]) CompareAndSwap(p *core.Ptr, old, new mem.Handle) bool {
	g.check()
	return g.s.CompareAndSwap(g.tid, p, old, new)
}

// Retire hands a detached (unlinked) block to the reclamation system.
func (g *Guard[T]) Retire(h mem.Handle) {
	g.check()
	g.s.Retire(g.tid, h)
}

// Alloc allocates a birth-stamped block via the scheme.
func (g *Guard[T]) Alloc() mem.Handle {
	g.check()
	return g.s.Alloc(g.tid)
}

// Discard returns a never-published block straight to the allocator — the
// failed-insert path, where no CAS ever linked the node so no other thread
// can hold it. Discarding a published block frees it under every reader
// that still holds it; the ibrdebug build panics at such a reader's next
// Deref.
func (g *Guard[T]) Discard(h mem.Handle) {
	g.check()
	g.pool.Free(g.tid, h)
}

// Restart renews the reservation mid-operation (the §4.3.1 starvation
// bound). The caller must hold no node references across the call.
func (g *Guard[T]) Restart() {
	g.check()
	g.s.RestartOp(g.tid)
}
