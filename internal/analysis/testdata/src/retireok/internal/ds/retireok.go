// Package ds holds the clean retirefree case: detachment goes through
// Scheme.Retire so a reclamation scan can prove the block unreachable.
package ds

import (
	"stub/internal/core"
	"stub/internal/mem"
)

type T struct {
	s core.Scheme
}

// Unlink retires through the scheme, as the protocol requires.
func (t *T) Unlink(tid int, h mem.Handle) {
	t.s.Retire(tid, h)
}

// Quarantine is the sanctioned transfer idiom: each cross-tid call carries
// an //ibrlint:ignore directive stating the parked-or-dead evidence.
func (t *T) Quarantine(victim, tid int) {
	//ibrlint:ignore quarantine: holder verified parked or dead via lease table
	t.s.ClearReservation(victim)
	//ibrlint:ignore quarantine: victim revoked, this goroutine owns the adopting tid
	t.s.AdoptRetired(victim, tid)
}
