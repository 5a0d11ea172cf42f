package core

import "testing"

// TestRetireSources checks the by-cause retirement accounting the serving
// layer's TTL expiry rides on: retirements tagged SourceExpiry land in the
// expiry counter, everything else defaults to SourceUser, and the sum
// matches the total retirement count.
func TestRetireSources(t *testing.T) {
	for _, name := range reclaimers() {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 1)
			s := r.scheme
			const userN, expN = 7, 5
			for i := 0; i < userN; i++ {
				s.StartOp(0)
				h := s.Alloc(0)
				s.Retire(0, h)
				s.EndOp(0)
			}
			s.SetRetireSource(0, SourceExpiry)
			for i := 0; i < expN; i++ {
				s.StartOp(0)
				h := s.Alloc(0)
				s.Retire(0, h)
				s.EndOp(0)
			}
			s.SetRetireSource(0, SourceUser)
			got := s.RetireSources()
			if got[SourceUser] != userN || got[SourceExpiry] != expN {
				t.Fatalf("RetireSources = %v, want [%d %d]", got, userN, expN)
			}
		})
	}
}

// TestRetireSourcesUnknownPanics pins the API contract: tagging with an
// out-of-range source is a programming error, not a silent misattribution.
func TestRetireSourcesUnknownPanics(t *testing.T) {
	r := newRig(t, "tagibr", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("SetRetireSource with unknown source did not panic")
		}
	}()
	r.scheme.SetRetireSource(0, NumRetireSources)
}
