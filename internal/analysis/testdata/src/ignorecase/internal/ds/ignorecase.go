// Package ds exercises the //ibrlint:ignore escape hatch. It is checked
// with derefguard and ibrdirective together: valid directives suppress the
// derefguard finding, while bare or misspelled directives are themselves
// findings and suppress nothing.
package ds

import (
	"stub/internal/core"
	"stub/internal/mem"
)

// dropPrevLine is a documented false positive: the directive on the line
// above suppresses the derefguard finding.
func dropPrevLine(p *mem.Pool, tid int, h mem.Handle) {
	//ibrlint:ignore never published; no CAS linked the node, so no other thread can hold it
	p.Free(tid, h)
}

// dropSameLine is suppressed by a same-line directive.
func dropSameLine(p *mem.Pool, tid int, h mem.Handle) {
	p.Free(tid, h) //ibrlint:ignore never published; discarded before any publication
}

// DropDoc is suppressed for the whole function by its doc directive.
//
//ibrlint:ignore quiescence-only: the structure is torn down single-threaded
func DropDoc(p *mem.Pool, tid int, hs []mem.Handle) {
	for _, h := range hs {
		p.Free(tid, h)
	}
	p.FreeBatches(tid, hs)
}

// dropLoud has no directive: the finding must survive.
func dropLoud(p *mem.Pool, tid int, h mem.Handle) {
	p.Free(tid, h) // want "raw Pool.Free bypasses the guard facade"
}

// dropBare shows a bare ignore: it suppresses nothing and is itself
// flagged by ibrdirective.
func dropBare(p *mem.Pool, tid int, h mem.Handle) {
	//ibrlint:ignore
	// want-1 "ignore without a reason suppresses nothing"
	p.Free(tid, h) // want "raw Pool.Free bypasses the guard facade"
}

// quarantine is the sanctioned cross-tid clear: the facade has no
// equivalent, so the call carries a directive stating the parked evidence.
func quarantine(s core.Scheme, victim int) {
	//ibrlint:ignore quarantine: holder verified parked under its slot mutex
	s.ClearReservation(victim)
}

//ibrlint:ignroe typo-verbs-must-not-pass-silently
// want-1 "unknown ibrlint directive \"ignroe\""
func typoVerb(p *mem.Pool, tid int, h mem.Handle) {
	p.Free(tid, h) // want "raw Pool.Free bypasses the guard facade"
}
