// Package ds exercises lifecycle's double-Retire check: handing the same
// handle to Retire twice along one control-flow path corrupts the retire
// list, while rebinding between retires (loops over fresh handles, explicit
// reassignment) is the normal idiom and must stay clean.
package ds

import (
	"stub/internal/core"
	"stub/internal/mem"
)

// doubleRetire retires h on the branch and again on the fall-through: the
// branch path hands the same value over twice.
func doubleRetire(s core.Scheme, tid int, h mem.Handle, cond bool) {
	if cond {
		s.Retire(tid, h)
	}
	s.Retire(tid, h) // want "Retire of a handle already retired at line 16: the block would enter the retire list twice"
}

// doubleRetireStraight is the degenerate straight-line case.
func doubleRetireStraight(s core.Scheme, tid int, h mem.Handle) {
	s.Retire(tid, h)
	s.Retire(tid, h) // want "Retire of a handle already retired at line 23: the block would enter the retire list twice"
}

// retireEach is the loop shape that must stay clean: the range variable is
// rebound every iteration.
func retireEach(s core.Scheme, tid int, hs []mem.Handle) {
	for _, h := range hs {
		s.Retire(tid, h)
	}
}

// reassigned is clean: the second Retire hands over a different value.
func reassigned(s core.Scheme, p *core.Ptr, tid int, h mem.Handle) {
	s.Retire(tid, h)
	h = p.Raw()
	s.Retire(tid, h)
}

// branchExclusive is clean: the two Retire calls are on mutually exclusive
// paths.
func branchExclusive(s core.Scheme, tid int, h mem.Handle, cond bool) {
	if cond {
		s.Retire(tid, h)
		return
	}
	s.Retire(tid, h)
}
