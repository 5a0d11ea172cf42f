// Package core stubs ibr/internal/core for the analyzer golden tests.
package core

import "stub/internal/mem"

// Ptr is a shared pointer cell.
type Ptr struct{ v uint64 }

func (p *Ptr) Raw() mem.Handle { return mem.Handle(p.v) }

func (p *Ptr) FetchOrMarks(m uint64) mem.Handle { return mem.Handle(p.v) }

// Scheme is the reservation API surface the analyzers key on.
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
}

// Transferer mirrors the cross-tid transfer surface.
type Transferer interface {
	AdoptRetired(from, to int) int
	ClearReservation(tid int)
}

// AdoptRetired mirrors the package-function form of retire-list adoption.
func AdoptRetired(s Scheme, from, to int) int {
	if t, ok := s.(Transferer); ok {
		return t.AdoptRetired(from, to)
	}
	return 0
}

// ClearReservation mirrors the package-function form of the cross-tid
// reservation clear.
func ClearReservation(s Scheme, tid int) {
	if t, ok := s.(Transferer); ok {
		t.ClearReservation(tid)
	}
}
