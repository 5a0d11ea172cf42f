// Package guard stubs ibr/internal/guard for the analyzer golden tests.
// The real facade is generic over the node type; the analyzers match its
// methods by name plus import-path suffix, so a non-generic stub over the
// stub mem.Node suffices.
package guard

import (
	"stub/internal/core"
	"stub/internal/mem"
)

// Guarded mirrors guard.Guarded[T].
type Guarded struct {
	s    core.Scheme
	pool *mem.Pool
}

func New(s core.Scheme, pool *mem.Pool) *Guarded { return &Guarded{s: s, pool: pool} }

func (w *Guarded) Scheme() core.Scheme { return w.s }
func (w *Guarded) Pool() *mem.Pool     { return w.pool }

func (w *Guarded) Do(tid int, fn func(g *Guard)) {
	w.s.StartOp(tid)
	defer w.s.EndOp(tid)
	fn(&Guard{w: w, tid: tid})
}

// Guard mirrors guard.Guard[T].
type Guard struct {
	w   *Guarded
	tid int
}

func (g *Guard) Tid() int                                  { return g.tid }
func (g *Guard) Load(slot int, p *core.Ptr) mem.Handle     { return g.w.s.Read(g.tid, slot, p) }
func (g *Guard) LoadRoot(slot int, p *core.Ptr) mem.Handle { return g.w.s.ReadRoot(g.tid, slot, p) }
func (g *Guard) Deref(h mem.Handle) *mem.Node              { return g.w.pool.Get(h) }
func (g *Guard) Publish(p *core.Ptr, h mem.Handle)         { g.w.s.Write(g.tid, p, h) }
func (g *Guard) CompareAndSwap(p *core.Ptr, old, new mem.Handle) bool {
	return g.w.s.CompareAndSwap(g.tid, p, old, new)
}
func (g *Guard) Retire(h mem.Handle)  { g.w.s.Retire(g.tid, h) }
func (g *Guard) Alloc() mem.Handle    { return g.w.s.Alloc(g.tid) }
func (g *Guard) Discard(h mem.Handle) { g.w.pool.Free(g.tid, h) }
func (g *Guard) Restart()             { g.w.s.RestartOp(g.tid) }
