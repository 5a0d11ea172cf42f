// Package core stands in for the reclamation substrate. Inside
// internal/core, internal/mem and internal/guard the protocol surface is
// the implementation, so derefguard reports nothing here: a scan frees what
// it has proven unreachable, an allocation stamps its own birth epoch, and
// a scheme brackets its own operations.
package core

import (
	stub "stub/internal/core"
	"stub/internal/mem"
)

// Reclaim frees blocks a scan proved unreachable.
func Reclaim(p *mem.Pool, tid int, hs []mem.Handle) {
	for _, h := range hs {
		p.Free(tid, h)
	}
	p.FreeBatches(tid, hs)
}

// alloc stamps the birth before the handle escapes (paper Fig. 4).
func alloc(p *mem.Pool, tid int, epoch uint64) mem.Handle {
	h, ok := p.Alloc(tid)
	if !ok {
		return mem.Nil
	}
	p.SetBirth(h, epoch)
	return h
}

// restart renews a reservation the way a scheme's RestartOp does.
func restart(s stub.Scheme, tid int) {
	s.EndOp(tid)
	s.StartOp(tid)
}
