// Package core stubs ibr/internal/core for the analyzer golden tests.
package core

import "stub/internal/mem"

// Ptr is a shared pointer cell.
type Ptr struct{ v uint64 }

func (p *Ptr) Raw() mem.Handle { return mem.Handle(p.v) }

func (p *Ptr) FetchOrMarks(m uint64) mem.Handle { return mem.Handle(p.v) }

// Scheme is the reservation API surface the analyzers key on, including the
// cross-tid transfer methods of its control block.
type Scheme interface {
	StartOp(tid int)
	EndOp(tid int)
	RestartOp(tid int)
	Alloc(tid int) mem.Handle
	Read(tid, slot int, p *Ptr) mem.Handle
	ReadRoot(tid, slot int, p *Ptr) mem.Handle
	Write(tid int, p *Ptr, h mem.Handle)
	CompareAndSwap(tid int, p *Ptr, old, new mem.Handle) bool
	Retire(tid int, h mem.Handle)
	Unreclaimed(tid int) int
	ClearReservation(tid int)
}

// TotalUnreclaimed mirrors the package-level bookkeeping helper.
func TotalUnreclaimed(s Scheme, threads int) int {
	total := 0
	for tid := 0; tid < threads; tid++ {
		total += s.Unreclaimed(tid)
	}
	return total
}
