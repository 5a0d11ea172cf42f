package ds

import (
	"math/rand"
	"sync"
	"testing"

	"ibr/internal/core"
	"ibr/internal/lincheck"
)

// TestLinearizability records real concurrent histories on a small shared
// key set, for every map structure under every scheme SchemeSupports
// allows, and verifies each key's history against the sequential
// set-register spec with the lincheck DFS. Unlike the disjoint-key model
// tests, this validates *contended* interleavings — the place where an
// unsound reclamation scheme manifests as stale reads or lost updates.
// Histories are kept short (per round) so every key's history is
// conclusively checkable.
func TestLinearizability(t *testing.T) {
	for _, structure := range mapStructures {
		for _, scheme := range core.Names() {
			if !SchemeSupports(scheme, structure) {
				continue
			}
			t.Run(structure+"/"+scheme, func(t *testing.T) {
				checkHistories(t, newTestMap(t, structure, scheme, linThreads), 0, 0)
			})
		}
	}
}

// TestRangeLinearizability is TestLinearizability for the Ranger
// structures with one op in four a Range, recorded as
// TestServerLinearizable records a RANGE: each returned key as present and
// each covered key it did not return as absent, all over the scan's
// window. So every scan is checked for its structural contract
// (ascending, in-bounds, duplicate-free) and each key's observations
// against that key's history. A reclamation bug in the scan path — which
// holds one reservation across the whole traversal — shows up as a
// phantom (a freed node's key returned) or a lost key.
func TestRangeLinearizability(t *testing.T) {
	for _, structure := range mapStructures {
		for _, scheme := range core.Names() {
			if !SchemeSupports(scheme, structure) {
				continue
			}
			m := newTestMap(t, structure, scheme, linThreads)
			if _, ok := m.(Ranger); !ok {
				continue
			}
			t.Run(structure+"/"+scheme, func(t *testing.T) { checkHistories(t, m, 4, 777) })
		}
	}
}

const (
	linThreads = 3
	linKeys    = 4
	linOps     = 4 // per thread per round
	linRounds  = 150
)

// checkHistories runs linRounds rounds of linThreads goroutines doing linOps
// random ops each over linKeys keys, and checks each round's history. One
// op in rangeEvery (0: none) is a Range from a random key over up to
// linKeys keys; seed offsets the per-goroutine random streams.
func checkHistories(t *testing.T, m Map, rangeEvery int, seed int64) {
	t.Helper()
	present := map[uint64]bool{}
	for round := 0; round < linRounds; round++ {
		rec := lincheck.NewRecorder(linThreads)
		var (
			wg      sync.WaitGroup
			scanErr error
			errMu   sync.Mutex
		)
		for tid := 0; tid < linThreads; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*linThreads+tid) + seed))
				for i := 0; i < linOps; i++ {
					key := uint64(rng.Intn(linKeys))
					t0 := rec.Begin()
					if rangeEvery > 0 && rng.Intn(rangeEvery) == 0 {
						hi := min(key+uint64(rng.Intn(linKeys)), linKeys-1)
						var got, covered []uint64
						m.(Ranger).Range(tid, key, hi, func(k, v uint64) bool {
							got = append(got, k)
							return true
						})
						for k := key; k <= hi; k++ {
							covered = append(covered, k)
						}
						if err := rec.RecordRange(tid, key, hi, got, covered, t0); err != nil {
							errMu.Lock()
							if scanErr == nil {
								scanErr = err
							}
							errMu.Unlock()
							return
						}
						continue
					}
					switch rng.Intn(3) {
					case 0:
						ok := m.Insert(tid, key, key)
						rec.Record(tid, lincheck.Insert, key, ok, t0)
					case 1:
						ok := m.Remove(tid, key)
						rec.Record(tid, lincheck.Remove, key, ok, t0)
					default:
						_, ok := m.Get(tid, key)
						rec.Record(tid, lincheck.Get, key, ok, t0)
					}
				}
			}(tid)
		}
		wg.Wait()
		if scanErr != nil {
			t.Fatalf("round %d: %v", round, scanErr)
		}
		rep := lincheck.Check(rec.Events(), func(k uint64) bool { return present[k] })
		if err := rep.Err(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if rep.Inconclusive > 0 {
			t.Fatalf("round %d: %d keys inconclusive (history too long)", round, rep.Inconclusive)
		}
		// Refresh the quiescent state for the next round.
		for k := uint64(0); k < linKeys; k++ {
			_, ok := m.Get(0, k)
			present[k] = ok
		}
	}
}
