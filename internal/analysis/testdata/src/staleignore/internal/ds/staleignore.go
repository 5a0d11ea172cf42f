// Package ds exercises ibrdirective's staleness check: an //ibrlint:ignore
// that suppressed a real finding is fine, one that suppresses nothing from
// the whole suite is itself reported — a rotted suppression sits ready to
// hide the next real finding at that site.
package ds

import "stub/internal/mem"

// discard's directive suppresses a live derefguard finding: used, not
// stale.
func discard(p *mem.Pool, tid int, h mem.Handle) {
	//ibrlint:ignore never published; discarded before any publication
	p.Free(tid, h)
}

// check carries a directive above a line that triggers nothing in any
// analyzer: the suppression is dead weight and must be flagged.
func check(h mem.Handle) bool {
	//ibrlint:ignore never published; nothing here needs suppressing
	// want-1 "stale //ibrlint:ignore: it suppresses no diagnostic from the suite"
	return h.IsNil()
}
