package ds

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ibr/internal/core"
	"ibr/internal/guard"
)

// TestSortedUnique checks the radix sort against a stable comparison sort
// that keeps the first pair per key, over key widths that take zero to six
// passes, and that it leaves its input alone.
func TestSortedUnique(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, width := range []uint{0, 1, 11, 12, 18, 33, 62} {
		for _, n := range []int{0, 1, 2, 100, 5000} {
			keys := make([]uint64, n/4+1) // about four pairs per key
			for i := range keys {
				keys[i] = r.Uint64() >> (64 - width)
			}
			pairs := make([]KV, n)
			for i := range pairs {
				pairs[i] = KV{keys[r.Intn(len(keys))], uint64(i)}
			}
			in := slices.Clone(pairs)
			want := slices.Clone(pairs)
			slices.SortStableFunc(want, func(a, b KV) int { return cmp.Compare(a.Key, b.Key) })
			want = slices.CompactFunc(want, func(a, b KV) bool { return a.Key == b.Key })
			if got := sortedUnique(pairs); !slices.Equal(got, want) {
				t.Fatalf("width %d, %d pairs: sortedUnique = %v, want %v", width, n, got, want)
			}
			if !slices.Equal(pairs, in) {
				t.Fatalf("width %d, %d pairs: sortedUnique changed its input", width, n)
			}
		}
	}
}

// TestFillRefusesNonEmpty: a second Fill would overwrite the roots the
// first linked from, losing its nodes unretired, so every structure's Fill
// panics on a non-empty map, naming the structure, before it changes
// anything. A map emptied by Remove fills again.
func TestFillRefusesNonEmpty(t *testing.T) {
	for _, structure := range mapStructures {
		t.Run(structure, func(t *testing.T) {
			m := newTestMap(t, structure, "ebr", 1)
			m.Fill([]KV{{1, 10}, {3, 30}})
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, structure) {
						t.Errorf("second Fill: panic %q, want one naming %q", msg, structure)
					}
				}()
				m.Fill([]KV{{2, 20}})
			}()
			checkKeysMatchModel(t, m, map[uint64]uint64{1: 10, 3: 30})
			m.Remove(0, 1)
			m.Remove(0, 3)
			m.Fill([]KV{{2, 20}})
			checkKeysMatchModel(t, m, map[uint64]uint64{2: 20})
			core.DrainAll(m.(Instrumented).Scheme(), 1)
			if live, want := m.(Instrumented).PoolStats().Live(), expectedNodes(structure, 1); live != want {
				t.Fatalf("%d live slots, want %d", live, want)
			}
		})
	}
}

// TestSkipListFillWellFormed checks the bottom-up load under every scheme
// that reclaims a skip list: shuffled pairs with duplicates give a
// coherent list holding the first pair per key, every node is linked at
// exactly its levels [0, topLevel) with a link count to match, and
// removing every key retires every node exactly once. The second round
// loads into recycled slots, whose stale links a missed write would keep.
func TestSkipListFillWellFormed(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pairs := make([]KV, 3000)
	model := map[uint64]uint64{}
	for i := range pairs {
		k := uint64(r.Intn(2000))
		pairs[i] = KV{k, uint64(i)}
		if _, ok := model[k]; !ok {
			model[k] = uint64(i)
		}
	}
	for _, scheme := range core.Names() {
		if scheme == "none" || !SchemeSupports(scheme, "skiplist") {
			continue
		}
		t.Run(scheme, func(t *testing.T) {
			sl := newTestSkipList(t, scheme, 1)
			for round := 0; round < 2; round++ {
				sl.Fill(pairs)
				if err := sl.Validate(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				checkKeysMatchModel(t, sl, model)
				if err := fillTowers(sl); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for k := range model {
					if !sl.Remove(0, k) {
						t.Fatalf("round %d: Remove(%d) = false", round, k)
					}
				}
				core.DrainAll(sl.Scheme(), 1)
				if live := sl.PoolStats().Live(); live != 0 {
					t.Fatalf("round %d: %d live slots after removing every key, want 0", round, live)
				}
			}
		})
	}
}

// fillTowers checks at quiescence that every node is linked at exactly its
// levels [0, topLevel) and that its link count, whose last decrement
// retires it, equals that height.
func fillTowers(sl *SkipList) (err error) {
	sl.w.Do(0, func(g *guard.Guard[slNode]) {
		linked := map[uint64]int32{}
		for l := range sl.head.next {
			for h := sl.head.next[l].Raw(); !h.IsNil(); h = g.Deref(h).next[l].Raw() {
				if n := g.Deref(h); int(n.topLevel) > l {
					linked[n.key]++
				} else {
					err = fmt.Errorf("key %d of height %d linked at level %d", n.key, n.topLevel, l)
					return
				}
			}
		}
		for h := sl.head.next[0].Raw(); !h.IsNil(); h = g.Deref(h).next[0].Raw() {
			n := g.Deref(h)
			if got := n.links.Load(); got != int32(n.topLevel) || linked[n.key] != got {
				err = fmt.Errorf("key %d: height %d, link count %d, linked at %d levels", n.key, n.topLevel, got, linked[n.key])
				return
			}
		}
	})
	return err
}

// benchPrefill returns n shuffled pairs of distinct keys below keys, the
// shape of the benchmark module's prefill.
func benchPrefill(keys, n int) []KV {
	perm := rand.New(rand.NewSource(1)).Perm(keys)[:n]
	pairs := make([]KV, n)
	for i, k := range perm {
		pairs[i] = KV{uint64(k), 2*uint64(k) + 1}
	}
	return pairs
}

// BenchmarkFill is the bulk-load stage of the benchmark module's setup:
// NewMap plus Fill under tagibr at its prefill sizes (lib-scan-stall's
// skip list, lib-write's hash map), reported per pair.
func BenchmarkFill(b *testing.B) {
	for _, c := range []struct {
		structure string
		keys, n   int
	}{
		{"skiplist", 1 << 18, 1 << 17},
		{"hashmap", 1 << 16, 1 << 15},
	} {
		pairs := benchPrefill(c.keys, c.n)
		b.Run(c.structure, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := NewMap(c.structure, Config{Scheme: "tagibr", Core: core.Options{Threads: 2}})
				if err != nil {
					b.Fatal(err)
				}
				m.Fill(pairs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/pair")
		})
	}
}
