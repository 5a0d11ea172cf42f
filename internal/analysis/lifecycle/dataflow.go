package lifecycle

import (
	"fmt"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/cfg"

	"ibr/internal/analysis/ibrlint"
)

// Typestate flag bits, per tracked variable. This is a may-analysis: a set
// bit means the property holds on some path reaching the program point.
const (
	fTracked  uint8 = 1 << iota // holds a tracked handle value
	fFromRead                   // value came from a protected read
	fPub                        // possibly published (CAS new-value, escape)
	fPubDef                     // definitely published (Write, node-field store)
	fRetired                    // retired on some path
	// fFresh marks a variable that no longer holds the value it entered the
	// function with: effects on it do not belong to the parameter summary.
	fFresh
)

type evKind int

const (
	evAssign  evKind = iota // pairs of dst <- src / gen / kill
	evRetire                // src handed to Retire
	evFree                  // src freed directly (Free / Discard)
	evPublish               // src stored into a shared pointer (def: definitely)
	evUse                   // src dereferenced (Pool.Get / Guard.Deref)
	evEscape                // src escapes (return, composite, append, send)
	evExpose                // src passed to an opaque visitor callback
	evCall                  // summarized call: fn's effects apply to args
)

type assignPair struct {
	dst, src int // var indices; src == -1 means kill
	gen      bool
	genFlags uint8
}

type event struct {
	kind  evKind
	src   int
	def   bool
	what  string
	pos   token.Pos
	pairs []assignPair
	fn    *types.Func
	args  []int
}

// absState is the dataflow fact: per-variable flags plus a symmetric
// may-alias bitset (bit j of alias[i] means i and j may hold the same
// handle). Assignment copies flags and joins alias sets; assignment TO a
// variable divorces it from its old aliases, which is what keeps the
// retire-then-reacquire loop idiom clean.
type absState struct {
	flags []uint8
	alias []uint64
}

func newState(n int) *absState {
	return &absState{flags: make([]uint8, n), alias: make([]uint64, n)}
}

func (s *absState) clone() *absState {
	c := newState(len(s.flags))
	copy(c.flags, s.flags)
	copy(c.alias, s.alias)
	return c
}

// join ORs o into s (may-analysis), reporting whether s changed.
func (s *absState) join(o *absState) bool {
	changed := false
	for i := range s.flags {
		if f := s.flags[i] | o.flags[i]; f != s.flags[i] {
			s.flags[i] = f
			changed = true
		}
		if a := s.alias[i] | o.alias[i]; a != s.alias[i] {
			s.alias[i] = a
			changed = true
		}
	}
	return changed
}

func bit(v int) uint64 { return 1 << uint(v) }

// kill divorces v from its aliases and resets it to untracked-but-fresh.
func (s *absState) kill(v int) {
	for u := range s.alias {
		s.alias[u] &^= bit(v)
	}
	s.alias[v] = 0
	s.flags[v] = fFresh
}

// markSet returns v plus everything it may alias.
func (s *absState) markSet(v int) uint64 { return s.alias[v] | bit(v) }

func forEach(set uint64, f func(u int)) {
	for u := 0; set != 0; u++ {
		if set&1 != 0 {
			f(u)
		}
		set >>= 1
	}
}

// reportCtx is present only on the final walk over the converged states:
// it collects the parameter summary and (inside internal/ds) diagnostics.
type reportCtx struct {
	sum      *Summary
	rep      *ibrlint.Reporter
	reported map[string]bool
}

func (fa *funcAnalysis) reportf(ctx *reportCtx, pos token.Pos, format string, args ...any) {
	if ctx.rep == nil {
		return
	}
	key := fmt.Sprintf("%d:%s", pos, format)
	if ctx.reported[key] {
		return
	}
	ctx.reported[key] = true
	ctx.rep.Reportf(pos, format, args...)
}

// noteEffect records eff against every unrebound parameter in set.
func (fa *funcAnalysis) noteEffect(ctx *reportCtx, st *absState, set uint64, eff ParamEffect) {
	forEach(set, func(u int) {
		if pi := fa.paramIdx[u]; pi >= 0 && st.flags[u]&fFresh == 0 {
			ctx.sum.Params[pi] |= eff
		}
	})
}

func (fa *funcAnalysis) line(pos token.Pos) int {
	return fa.pass.Fset.Position(pos).Line
}

// noteRetire records the source-earliest position that retired v, for
// diagnostics. Earliest-by-position rather than first-seen: the worklist
// visits blocks in an order unrelated to source order, and diagnostics must
// not anchor "retired at line N" to the later of two retires.
func (fa *funcAnalysis) noteRetire(v int, pos token.Pos) {
	if at := fa.retireAt[v]; at == token.NoPos || pos < at {
		fa.retireAt[v] = pos
	}
}

// apply advances st across one event. With ctx == nil this is the pure
// transfer function used during the fixpoint; with ctx it also emits
// diagnostics and accumulates the parameter summary.
func (fa *funcAnalysis) apply(st *absState, ev *event, ctx *reportCtx) {
	switch ev.kind {
	case evAssign:
		type snap struct {
			fl  uint8
			set uint64
		}
		snaps := make([]snap, len(ev.pairs))
		for i, p := range ev.pairs {
			if p.src >= 0 {
				snaps[i] = snap{st.flags[p.src], st.markSet(p.src)}
			}
		}
		for i, p := range ev.pairs {
			wasSelf := p.src >= 0 && snaps[i].set&bit(p.dst) != 0
			st.kill(p.dst)
			switch {
			case p.gen:
				st.flags[p.dst] = p.genFlags | fFresh
			case p.src >= 0:
				fl := snaps[i].fl
				if !wasSelf {
					fl |= fFresh
				}
				st.flags[p.dst] = fl
				set := snaps[i].set &^ bit(p.dst)
				st.alias[p.dst] = set
				forEach(set, func(u int) { st.alias[u] |= bit(p.dst) })
			}
		}

	case evRetire, evFree:
		v := ev.src
		set := st.markSet(v)
		if ctx != nil {
			if st.flags[v]&fRetired != 0 {
				if ev.kind == evRetire {
					fa.reportf(ctx, ev.pos, "%s of a handle already retired at line %d: the block would enter the retire list twice (double retire)", ev.what, fa.line(fa.retireAt[v]))
				} else {
					fa.reportf(ctx, ev.pos, "%s of a handle already retired at line %d: double reclamation", ev.what, fa.line(fa.retireAt[v]))
				}
			} else if ev.kind == evFree && st.flags[v]&fPubDef != 0 {
				fa.reportf(ctx, ev.pos, "%s of a handle that was published into the shared structure: another thread may still reach it; Retire it instead", ev.what)
			}
			eff := EffRetire
			if ev.kind == evFree {
				eff = EffFree
			}
			fa.noteEffect(ctx, st, set, eff)
		}
		forEach(set, func(u int) {
			st.flags[u] |= fRetired | fTracked
			fa.noteRetire(u, ev.pos)
		})

	case evPublish:
		v := ev.src
		set := st.markSet(v)
		if ctx != nil {
			if st.flags[v]&fRetired != 0 {
				fa.reportf(ctx, ev.pos, "%s publishes a handle retired at line %d: readers could traverse into a reclaimed block (use-after-retire)", ev.what, fa.line(fa.retireAt[v]))
			}
			fa.noteEffect(ctx, st, set, EffPublish)
		}
		fl := fPub
		if ev.def {
			fl |= fPubDef
		}
		forEach(set, func(u int) { st.flags[u] |= fl })

	case evUse:
		v := ev.src
		if ctx != nil {
			if st.flags[v]&fRetired != 0 {
				fa.reportf(ctx, ev.pos, "%s of a handle retired at line %d: the block may already be reclaimed (use-after-retire)", ev.what, fa.line(fa.retireAt[v]))
			}
			fa.noteEffect(ctx, st, st.markSet(v), EffDeref)
		}

	case evEscape:
		v := ev.src
		set := st.markSet(v)
		if ctx != nil {
			if st.flags[v]&fRetired != 0 {
				fa.reportf(ctx, ev.pos, "handle retired at line %d is %s: the receiver may dereference a reclaimed block (use-after-retire)", fa.line(fa.retireAt[v]), ev.what)
			}
			fa.noteEffect(ctx, st, set, EffEscape)
		}
		forEach(set, func(u int) { st.flags[u] |= fPub })

	case evExpose:
		// The range-callback idiom: the callee is caller-supplied code the
		// analyzer cannot see, so a handle argument may be retained past
		// the reservation bracket. Exposing a retired handle is the usual
		// use-after-retire escape; exposing a live protected-read
		// handle violates the ds.Ranger contract outright — the visitor
		// must receive values, because only values cannot outlive the
		// StartOp/EndOp bracket that protects the scan.
		v := ev.src
		set := st.markSet(v)
		if ctx != nil {
			if st.flags[v]&fRetired != 0 {
				fa.reportf(ctx, ev.pos, "handle retired at line %d is %s: the callback may dereference a reclaimed block (use-after-retire)", fa.line(fa.retireAt[v]), ev.what)
			} else if st.flags[v]&fFromRead != 0 && st.flags[v]&fPubDef == 0 {
				fa.reportf(ctx, ev.pos, "protected read handle is %s: the callback can retain it past the StartOp/EndOp bracket — range visitors receive values, not handles", ev.what)
			}
			fa.noteEffect(ctx, st, set, EffEscape)
		}
		forEach(set, func(u int) { st.flags[u] |= fPub })

	case evCall:
		sum := fa.lookupSummary(ev.fn)
		if sum == nil {
			return
		}
		for i, v := range ev.args {
			if v < 0 || i >= len(sum.Params) {
				continue
			}
			eff := sum.Params[i]
			if eff == 0 {
				continue
			}
			set := st.markSet(v)
			if ctx != nil {
				name := ev.fn.Name()
				if st.flags[v]&fRetired != 0 {
					switch {
					case eff&(EffRetire|EffFree) != 0:
						fa.reportf(ctx, ev.pos, "handle already retired at line %d is retired again by %s (double retire)", fa.line(fa.retireAt[v]), name)
					case eff&(EffDeref) != 0:
						fa.reportf(ctx, ev.pos, "handle retired at line %d is passed to %s, which dereferences it: the block may already be reclaimed (use-after-retire)", fa.line(fa.retireAt[v]), name)
					case eff&(EffPublish|EffEscape) != 0:
						fa.reportf(ctx, ev.pos, "handle retired at line %d is passed to %s, which publishes it (use-after-retire)", fa.line(fa.retireAt[v]), name)
					}
				}
				fa.noteEffect(ctx, st, set, eff)
			}
			if eff&(EffRetire|EffFree) != 0 {
				forEach(set, func(u int) {
					st.flags[u] |= fRetired | fTracked
					fa.noteRetire(u, ev.pos)
				})
			}
			if eff&(EffPublish|EffEscape) != 0 {
				forEach(set, func(u int) { st.flags[u] |= fPub })
			}
		}
	}
}

// analyze runs the worklist fixpoint over the function's CFG and then a
// final reporting/summarizing walk over the converged block-entry states.
// rep is nil outside internal/ds (summaries only).
func (fa *funcAnalysis) analyze(rep *ibrlint.Reporter) *Summary {
	blocks := fa.g.Blocks
	index := make(map[*cfg.Block]int, len(blocks))
	for i, b := range blocks {
		index[b] = i
	}

	n := len(fa.keys)
	in := make([]*absState, len(blocks))
	seen := make([]bool, len(blocks))
	entry := newState(n)
	for v := range fa.keys {
		if fa.paramIdx[v] >= 0 {
			// Parameters enter tracked and published: the caller still
			// holds the value, so it does not trip the escape checks.
			entry.flags[v] = fTracked | fPub
		}
	}
	in[0] = entry
	seen[0] = true
	work := []int{0}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		out := in[i].clone()
		for e := range fa.events[i] {
			fa.apply(out, &fa.events[i][e], nil)
		}
		for _, succ := range blocks[i].Succs {
			j := index[succ]
			if !seen[j] {
				in[j] = out.clone()
				seen[j] = true
				work = append(work, j)
			} else if in[j].join(out) {
				work = append(work, j)
			}
		}
	}

	ctx := &reportCtx{
		sum:      &Summary{Params: make([]ParamEffect, fa.nparams)},
		rep:      rep,
		reported: make(map[string]bool),
	}
	for i := range blocks {
		if !seen[i] {
			continue
		}
		st := in[i].clone()
		for e := range fa.events[i] {
			fa.apply(st, &fa.events[i][e], ctx)
		}
	}
	return ctx.sum
}
