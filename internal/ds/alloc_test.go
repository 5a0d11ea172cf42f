package ds

import "testing"

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation allocates on its own.
var raceEnabled bool

// TestFacadeOpsDoNotAllocate pins the facade's cost model: Guarded.Do hands
// out the tid's preallocated Guard, so a steady-state operation makes no Go
// heap allocation (pool slots are not Go allocations). The warm-up lets
// retire lists, pool caches and bonsai's scratch slices reach their working
// capacity first.
func TestFacadeOpsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	check := func(t *testing.T, what string, op func()) {
		t.Helper()
		for i := 0; i < 2000; i++ {
			op()
		}
		if n := testing.AllocsPerRun(500, op); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", what, n)
		}
	}
	for _, scheme := range []string{"tagibr", "ebr"} {
		for _, structure := range mapStructures {
			t.Run(structure+"/"+scheme, func(t *testing.T) {
				m := newTestMap(t, structure, scheme, 1)
				for k := uint64(0); k < 256; k += 2 {
					m.Insert(0, k, k)
				}
				check(t, "Get", func() { m.Get(0, 128) })
				check(t, "Insert+Remove", func() {
					m.Insert(0, 129, 1)
					m.Remove(0, 129)
				})
				// A range leg hands Range a callback built once, as the
				// engine's pooled scratch does, so the scan itself must
				// not allocate.
				if r, ok := m.(Ranger); ok {
					seen := 0
					visit := func(k, v uint64) bool { seen++; return true }
					check(t, "Range", func() { r.Range(0, 64, 191, visit) })
					if seen == 0 {
						t.Error("Range visited no keys")
					}
				}
			})
		}
		t.Run("stack/"+scheme, func(t *testing.T) {
			st, err := NewStack(testConfig(scheme, 1))
			if err != nil {
				t.Fatal(err)
			}
			check(t, "Push+Pop", func() {
				st.Push(0, 1)
				st.Pop(0)
			})
		})
		t.Run("msqueue/"+scheme, func(t *testing.T) {
			q, err := NewQueue(testConfig(scheme, 1))
			if err != nil {
				t.Fatal(err)
			}
			check(t, "Enqueue+Dequeue", func() {
				q.Enqueue(0, 1)
				q.Dequeue(0)
			})
		})
	}
}
