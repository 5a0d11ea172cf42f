// Package ibr is a Go implementation of interval-based memory reclamation
// ("Interval-Based Memory Reclamation", Wen, Izraelevitz, Cai, Beadle &
// Scott, PPoPP 2018), together with the comparison schemes and the lock-free
// data structures the paper evaluates them on.
//
// Because Go is garbage collected, the library ships its own manual-memory
// substrate: nodes live in slab pools with explicit alloc/free and are
// addressed by 64-bit handles, so safe memory reclamation is a real problem
// with observable failure modes (see DESIGN.md). The reclamation schemes —
// NoMM, EBR, hazard pointers, hazard eras, POIBR, TagIBR (CAS/FAA/WCAS/TPA),
// 2GEIBR and the post-paper Hyaline and DEBRA — all implement the paper's
// Fig. 1 API and are interchangeable under every structure, subject to the
// paper's restrictions.
//
// Quick start:
//
//	m, err := ibr.NewMap("hashmap", ibr.Config{Scheme: "tagibr", Threads: 8})
//	if err != nil { ... }
//	m.Insert(tid, key, value) // tid ∈ [0, Threads), one goroutine per tid
//
// The package's Example functions are complete programs with pinned output;
// cmd/ibrfigs is the benchmark suite that regenerates the paper's figures.
package ibr

import (
	"fmt"
	"strings"

	"ibr/internal/core"
	"ibr/internal/ds"
	"ibr/internal/harness"
)

// Map is a concurrent key-value structure; see the ds package for the
// contract (one goroutine per thread id, keys below KeyLimit).
type Map = ds.Map

// KV is a key-value pair for Map.Fill.
type KV = ds.KV

// Stack is the Treiber stack (persistent; works with POIBR).
type Stack = ds.Stack

// Queue is the Michael–Scott FIFO queue.
type Queue = ds.Queue

// Concrete Map implementations, exposed so callers can reach the
// structure-specific extras beyond the Map interface: List.Range,
// SkipList.Range and Bonsai.Range (range scans; Bonsai's runs over one
// immutable snapshot), Bonsai.Validate, SkipList.Validate and
// SkipList.Sweep.
type (
	// List is the Harris–Michael ordered list.
	List = ds.List
	// HashMap is Michael's lock-free hash map.
	HashMap = ds.HashMap
	// NMTree is the Natarajan–Mittal external BST.
	NMTree = ds.NMTree
	// Bonsai is the persistent weight-balanced tree.
	Bonsai = ds.Bonsai
	// SkipList is the lock-free skip list.
	SkipList = ds.SkipList
)

// Instrumented exposes the reclamation scheme and allocator statistics
// beneath a structure.
type Instrumented = ds.Instrumented

// KeyLimit is the exclusive upper bound on application keys.
const KeyLimit = ds.KeyLimit

// Config selects and tunes a structure/scheme pair.
type Config struct {
	// Scheme is the reclamation scheme: one of Schemes().
	Scheme string
	// Threads is the number of thread ids the structure will serve.
	Threads int
	// EpochFreq is the per-thread allocation count between global epoch
	// advances (default 150, the paper's setting).
	EpochFreq int
	// EmptyFreq is the retirement count between retire-list scans
	// (default 30).
	EmptyFreq int
	// Slots is the number of HP/HE protection slots per thread (default 8).
	Slots int
	// PoolSlots caps the node pool (default 4M slots).
	PoolSlots uint64
	// Buckets is the hash map bucket count (default 16384).
	Buckets int
	// Obs attaches a scheme observer (flight recorder + histograms; see
	// NewSchemeObs). Nil disables observability at the cost of one pointer
	// test per hook.
	Obs *SchemeObs
}

// Validate reports the first configuration error, or nil. The constructors
// call it, so callers only need it to fail fast (e.g. flag parsing) before
// building anything.
func (c Config) Validate() error {
	if c.Scheme != "" && !core.IsScheme(c.Scheme) {
		return fmt.Errorf("ibr: unknown scheme %q; valid: %s", c.Scheme, strings.Join(Schemes(), ", "))
	}
	if c.Threads <= 0 {
		return fmt.Errorf("ibr: Threads must be positive, got %d", c.Threads)
	}
	if c.EpochFreq < 0 || c.EmptyFreq < 0 || c.Slots < 0 {
		return fmt.Errorf("ibr: EpochFreq, EmptyFreq and Slots must be non-negative, got %d/%d/%d",
			c.EpochFreq, c.EmptyFreq, c.Slots)
	}
	if c.Buckets < 0 {
		return fmt.Errorf("ibr: Buckets must be non-negative, got %d", c.Buckets)
	}
	return nil
}

func (c Config) dsConfig() ds.Config {
	return ds.Config{
		Scheme: c.Scheme,
		Core: core.Options{
			Threads:   c.Threads,
			EpochFreq: c.EpochFreq,
			EmptyFreq: c.EmptyFreq,
			Slots:     c.Slots,
			Obs:       c.Obs,
		},
		PoolSlots: c.PoolSlots,
		Buckets:   c.Buckets,
	}
}

// NewMap builds a key-value structure: "list" (Harris–Michael ordered
// list), "hashmap" (Michael's hash map), "nmtree" (Natarajan–Mittal BST),
// "bonsai" (persistent weight-balanced tree), or "skiplist" (lock-free
// skip list).
func NewMap(structure string, cfg Config) (Map, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return ds.NewMap(structure, cfg.dsConfig())
}

// NewStack builds a Treiber stack.
func NewStack(cfg Config) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return ds.NewStack(cfg.dsConfig())
}

// NewQueue builds a Michael–Scott queue.
func NewQueue(cfg Config) (*Queue, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return ds.NewQueue(cfg.dsConfig())
}

// Drain forces a scan of every thread's retire list. Call it at
// quiescence (no operations in flight) — e.g. at shutdown — to release the
// bounded residue that scans keep while reservations are active.
func Drain(x Instrumented, threads int) { core.DrainAll(x.Scheme(), threads) }

// Schemes lists the reclamation scheme names, in the paper's order:
// none (leak), ebr, hp, he, poibr, tagibr, tagibr-faa, tagibr-wcas,
// tagibr-tpa, 2geibr, then the post-paper hyaline and debra.
func Schemes() []string { return core.Names() }

// Structures lists the data structure names.
func Structures() []string { return ds.Structures() }

// Supports reports whether a scheme can legally run a structure (POIBR
// needs a persistent structure; HP/HE cannot run the Bonsai tree).
func Supports(scheme, structure string) bool { return ds.SchemeSupports(scheme, structure) }

// BenchConfig configures one microbenchmark cell; see the harness package.
type BenchConfig = harness.Config

// BenchResult is one measured cell.
type BenchResult = harness.Result

// RunBench executes one cell of the paper's fixed-time microbenchmark.
func RunBench(cfg BenchConfig) (BenchResult, error) { return harness.Run(cfg) }
