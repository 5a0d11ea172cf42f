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
// too). So each can be run under any reclamation scheme (subject to the
// paper's restrictions: POIBR requires a persistent structure; HP/HE cannot
// run the Bonsai tree, whose rebalancing needs an unbounded number of
// protections). ibrlint's derefguard rejects any raw Scheme or Pool.Get
// call here.
package ds

import (
	"fmt"

	"ibr/internal/core"
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
	// Fill bulk-loads key→val pairs before concurrent use (single-threaded;
	// the benchmark's prefill). Keys need not be sorted or unique.
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

// Structures lists the registry names in the order of the paper's figures,
// then the extension structures.
func Structures() []string {
	return []string{"list", "hashmap", "nmtree", "bonsai", "skiplist", "stack", "msqueue"}
}

// MapStructures returns the registry names that implement Map (valid -r
// values for the benchmark and server commands), sorted lexically.
func MapStructures() []string {
	return []string{"bonsai", "hashmap", "list", "nmtree", "skiplist"}
}

// IsMapStructure reports whether name names a Map structure.
func IsMapStructure(name string) bool {
	for _, n := range MapStructures() {
		if n == name {
			return true
		}
	}
	return false
}

// NewMap builds a key-value structure by name. "stack" and "msqueue" are
// not Maps; use NewStack / NewQueue for those.
func NewMap(structure string, cfg Config) (Map, error) {
	switch structure {
	case "list":
		return NewList(cfg)
	case "hashmap":
		return NewHashMap(cfg)
	case "nmtree":
		return NewNMTree(cfg)
	case "bonsai":
		return NewBonsai(cfg)
	case "skiplist":
		return NewSkipList(cfg)
	}
	return nil, fmt.Errorf("ds: unknown map structure %q", structure)
}

// SchemeSupports reports whether a scheme can legally run a structure:
// POIBR requires a persistent structure (bonsai, stack); structures whose
// operations hold an unbounded or large number of simultaneous references
// (the Bonsai tree's rotations, the skip list's pred/succ arrays) rule out
// the fixed-slot pointer-based schemes (the paper omits HP and HE from
// Fig. 8d for exactly this reason).
func SchemeSupports(scheme, structure string) bool {
	persistent := structure == "bonsai" || structure == "stack"
	switch scheme {
	case "poibr":
		return persistent
	case "hp", "he":
		return structure != "bonsai" && structure != "skiplist"
	}
	// Everything else — the epoch/interval family plus the post-paper
	// hyaline and debra engines — protects whole operations rather than
	// individual pointers, so any structure is legal.
	return true
}
