// Package ds implements the concurrent data structures ("rideables" in the
// paper's artifact) used by the evaluation in §5 of "Interval-Based Memory
// Reclamation": the Harris–Michael ordered list, Michael's lock-free hash
// map, the Natarajan–Mittal external binary search tree, and a lock-free
// variant of the Bonsai tree (a persistent balanced BST). A Treiber stack
// and a Michael–Scott queue round out the collection as additional
// persistent / FIFO workloads.
//
// Every structure is written one way: it stores its nodes in a mem.Pool,
// wraps pool and core.Scheme in an internal/guard Guarded[T], and runs each
// operation inside Guarded.Do, touching handles only through the Guard it
// passes (quiescence-only walks like Keys and Len open a tid-0 bracket
// too). internal/guard's TestProtocolBoundary fails on any raw Scheme or
// Pool protocol call here.
//
// The registry is the one place where a structure meets its scheme: a row
// per structure with the two properties the paper's rule reads (POIBR
// needs a persistent structure, HP and HE bounded references). Every
// constructor builds through newBase, which refuses the pairs
// SchemeSupports refuses and answers Name, Scheme and PoolStats.
package ds

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"ibr/internal/core"
	"ibr/internal/guard"
	"ibr/internal/mem"
)

// Map is the shared key-value interface the benchmarks drive. Keys must be
// strictly less than KeyLimit (large sentinel keys are reserved for the
// Natarajan–Mittal tree). A given tid must be used by one goroutine at a
// time.
type Map interface {
	// Name returns the structure's registry name, e.g. "list".
	Name() string
	// Insert adds key→val; it returns false (and changes nothing) if the
	// key is already present.
	Insert(tid int, key, val uint64) bool
	// Remove deletes key, returning false if it was absent.
	Remove(tid int, key uint64) bool
	// Get returns the value bound to key.
	Get(tid int, key uint64) (uint64, bool)
	// Fill loads key→val pairs into an empty map before concurrent use
	// (single-threaded; the benchmark's prefill) and panics on a map that
	// is not empty. Keys need not be sorted or unique: the first pair given
	// for a key wins, as successive Inserts would have it. The sorted
	// structures (list, hash map chains, skip list) sort the pairs once and
	// link them bottom-up; the trees Insert them in the order given, since
	// an ascending load would degenerate the unbalanced NM tree.
	Fill(pairs []KV)
	// Keys returns the current key set in ascending order. It must only be
	// called at quiescence (no concurrent operations); tests use it to
	// compare against a model.
	Keys() []uint64
}

// Ranger is the optional ordered-iteration interface: a Map additionally
// implements it when it can scan a key interval in ascending order. Range
// calls fn for every pair with from <= key <= to, ascending, under ONE
// reclamation bracket per call — the serving layer relies on that to make a
// large scan a single long reservation interval (the paper's adversarial
// reader). Consistency is structure-specific: the Bonsai tree scans an
// atomic snapshot, while the list and skip list are weakly consistent —
// keys mutated mid-scan may or may not appear, but every key untouched for
// the scan's duration is reported exactly once and no key twice. fn
// returning false stops the scan. fn must not retain node references
// beyond its return (it receives values, not handles, precisely so it
// cannot); structures without ordered layout (hashmap, nmtree) do not
// implement Ranger and the engine answers StatusUnsupported for them.
type Ranger interface {
	Range(tid int, from, to uint64, fn func(key, val uint64) bool)
}

// KV is a key-value pair for Fill.
type KV struct{ Key, Val uint64 }

// KeyLimit is the exclusive upper bound on application keys; values at or
// above it are reserved for internal sentinels.
const KeyLimit = uint64(1) << 62

// radixBits is sortedUnique's digit width: the benchmark's 2^18 keys sort
// in two passes and any key below KeyLimit in at most six, each pass over
// a 2,048-entry count table that stays in L1.
const radixBits = 11

// sortedUnique returns pairs sorted by key, keeping the first pair given
// for each key, in a new slice. It is a stable LSD radix sort over the
// keys' significant bits, so equal keys keep their input order and the
// first of each run is the one kept. Every key goes through checkKey.
func sortedUnique(pairs []KV) []KV {
	var all uint64
	for _, kv := range pairs {
		checkKey(kv.Key)
		all |= kv.Key
	}
	src, dst := slices.Clone(pairs), make([]KV, len(pairs))
	for shift := 0; shift < bits.Len64(all); shift += radixBits {
		var ends [1 << radixBits]int
		deal(dst, src, ends[:], 1, uint(shift))
		src, dst = dst, src
	}
	out := src[:0]
	for _, kv := range src {
		if len(out) == 0 || kv.Key != out[len(out)-1].Key {
			out = append(out, kv)
		}
	}
	return out
}

// deal is one stable counting pass: it copies src into dst grouped by the
// digit key*mul>>shift, taken mod len(ends), a power of two: digits
// ascending, each digit's pairs in src's order. ends must be zeroed; deal
// leaves ends[d] where digit d's run in dst ends.
func deal(dst, src []KV, ends []int, mul uint64, shift uint) {
	mask := uint64(len(ends) - 1)
	for _, kv := range src {
		ends[kv.Key*mul>>shift&mask]++
	}
	at := 0
	for d, n := range ends {
		ends[d], at = at, at+n
	}
	for _, kv := range src {
		d := kv.Key * mul >> shift & mask
		dst[ends[d]] = kv
		ends[d]++
	}
}

// refuseNonEmpty panics, naming the structure, unless Fill found its map
// empty: a bulk load overwrites the roots it links from, so nodes already
// linked there would be lost unretired.
func (b *base[T]) refuseNonEmpty(empty bool) {
	if !empty {
		panic("ds: Fill of a non-empty " + b.name)
	}
}

// Instrumented exposes the plumbing beneath a Map for benchmarks and tests.
type Instrumented interface {
	Scheme() core.Scheme
	PoolStats() mem.Stats
}

// Config carries everything needed to build a structure+scheme pair.
type Config struct {
	// Scheme is a core registry name ("ebr", "tagibr", ...).
	Scheme string
	// Core tunes the reclamation scheme; Core.Threads is required.
	Core core.Options
	// PoolSlots caps the node pool (0 = mem.DefaultMaxSlots).
	PoolSlots uint64
	// Buckets sets the hash map's bucket count (0 = DefaultBuckets).
	Buckets int
	// Poison enables sentinel-poisoning of freed nodes (tests).
	Poison bool
}

// DefaultBuckets is the hash map bucket count used by the benchmarks.
const DefaultBuckets = 1 << 14

// entry is one row of the registry.
type entry struct {
	name        string
	newMap      func(Config) (Map, error) // nil for the stack and the queue
	persistent  bool                      // nodes below the root never change (§3.1)
	boundedRefs bool                      // an operation holds a few references at once
}

// registry lists the structures in the order of the paper's figures, then
// the extension structures. It is filled in init because the constructors
// it names check their pair against it.
var registry []entry

func init() {
	registry = []entry{
		{"list", func(c Config) (Map, error) { return NewList(c) }, false, true},
		{"hashmap", func(c Config) (Map, error) { return NewHashMap(c) }, false, true},
		{"nmtree", func(c Config) (Map, error) { return NewNMTree(c) }, false, true},
		{"bonsai", func(c Config) (Map, error) { return NewBonsai(c) }, true, false},
		{"skiplist", func(c Config) (Map, error) { return NewSkipList(c) }, false, false},
		{"stack", nil, true, true},
		{"msqueue", nil, false, true},
	}
}

// lookup returns name's registry row, or nil.
func lookup(name string) *entry {
	for i := range registry {
		if registry[i].name == name {
			return &registry[i]
		}
	}
	return nil
}

// Structures lists the registry names in the order of the paper's figures,
// then the extension structures.
func Structures() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.name
	}
	return out
}

// MapStructures returns the registry names that implement Map (valid -r
// values for the benchmark and server commands), sorted lexically.
func MapStructures() []string {
	var out []string
	for _, r := range registry {
		if r.newMap != nil {
			out = append(out, r.name)
		}
	}
	sort.Strings(out)
	return out
}

// NewMap builds a key-value structure by name. "stack" and "msqueue" are
// not Maps; use NewStack / NewQueue for those. It refuses what CheckMap
// refuses, with CheckMap's error.
func NewMap(structure string, cfg Config) (Map, error) {
	if err := CheckMap(structure, cfg.Scheme); err != nil {
		return nil, err
	}
	return lookup(structure).newMap(cfg)
}

// SchemeSupports reports whether a scheme can legally run a structure:
// POIBR requires a persistent structure, and HP and HE, whose protection
// slots are fixed, bounded references (the paper omits them from Fig. 8d).
// Every other scheme protects whole operations and runs any structure. An
// unknown name on either side answers false; aliases resolve as in
// core.IsScheme.
func SchemeSupports(scheme, structure string) bool {
	r := lookup(structure)
	if r == nil || !core.IsScheme(scheme) {
		return false
	}
	switch scheme {
	case "poibr":
		return r.persistent
	case "hp", "he":
		return r.boundedRefs
	}
	return true
}

// CheckMap returns nil if a Map of structure can run under scheme, and
// otherwise the commands' usage error: an unknown structure or scheme,
// naming the valid ones, or a pair SchemeSupports refuses.
func CheckMap(structure, scheme string) error {
	if r := lookup(structure); r == nil || r.newMap == nil {
		return fmt.Errorf("unknown structure %q; valid: %s", structure, strings.Join(MapStructures(), ", "))
	}
	return checkPair(structure, scheme)
}

// CheckScheme returns nil if scheme names a registered scheme (aliases
// included), and otherwise the one unknown-scheme error every caller
// returns: the name and the valid ones, sorted.
func CheckScheme(scheme string) error {
	if !core.IsScheme(scheme) {
		return fmt.Errorf("unknown scheme %q; valid: %s", scheme, strings.Join(core.Schemes(), ", "))
	}
	return nil
}

// checkPair is CheckMap for any registered structure, Maps or not.
func checkPair(structure, scheme string) error {
	if err := CheckScheme(scheme); err != nil {
		return err
	}
	if !SchemeSupports(scheme, structure) {
		return fmt.Errorf("scheme %q cannot run structure %q", scheme, structure)
	}
	return nil
}

// base is what every structure embeds: the facade over its pool and scheme,
// and its registry name.
type base[T any] struct {
	w    *guard.Guarded[T]
	name string
}

// newScheme builds a structure's scheme. It is core.New; tests wrap the
// scheme it returns to schedule an adversary inside an operation.
var newScheme = core.New

// newBase is the one constructor helper: it refuses a pair checkPair
// refuses, then builds the node pool (poisoned when freed if cfg.Poison),
// the scheme over it and the facade over both.
func newBase[T any](name string, cfg Config, poison func(*T)) (base[T], error) {
	if err := checkPair(name, cfg.Scheme); err != nil {
		return base[T]{}, err
	}
	popt := mem.Options[T]{Threads: cfg.Core.Threads, MaxSlots: cfg.PoolSlots}
	if cfg.Poison {
		popt.Poison = poison
	}
	pool := mem.New[T](popt)
	s, err := newScheme(cfg.Scheme, pool, cfg.Core)
	if err != nil {
		return base[T]{}, err
	}
	return base[T]{w: guard.New(s, pool), name: name}, nil
}

// Name returns the structure's registry name, e.g. "list".
func (b *base[T]) Name() string { return b.name }

// Scheme exposes the reclamation scheme.
func (b *base[T]) Scheme() core.Scheme { return b.w.Scheme() }

// PoolStats exposes allocator counters.
func (b *base[T]) PoolStats() mem.Stats { return b.w.Pool().Stats() }
