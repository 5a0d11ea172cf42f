// Command ibrstress is a correctness hammer: it drives a (structure ×
// scheme) pair with concurrent workers under freed-node poisoning, checks
// every operation against per-thread models on disjoint key ranges, and
// finishes with structural validation and exact leak accounting. It exits
// non-zero on the first violation — use it to soak-test a scheme for
// minutes or hours:
//
//	ibrstress -r nmtree -d tagibr -t 8 -i 30
//	ibrstress -all -i 2          # every supported pair, 2s each
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ibr/internal/core"
	"ibr/internal/ds"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, soaks the chosen pairs and returns
// the exit code — 2 for a usage error (an unknown structure or scheme, or
// a pair the scheme cannot run), 1 if any pair failed, else 0.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ibrstress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		structure = fs.String("r", "hashmap", "structure under test")
		scheme    = fs.String("d", "tagibr", "reclamation scheme")
		threads   = fs.Int("t", 4, "worker threads")
		seconds   = fs.Float64("i", 5, "seconds per pair")
		keysEach  = fs.Uint64("keys", 128, "keys per worker (disjoint ranges)")
		shared    = fs.Uint64("shared", 16, "extra fully-shared hot keys")
		all       = fs.Bool("all", false, "run every supported (structure, scheme) pair")
		seed      = fs.Int64("seed", time.Now().UnixNano(), "rng seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "ibrstress: "+format+"\n", a...)
		return 2
	}
	if !*all {
		switch {
		case !ds.IsMapStructure(*structure):
			return usage("unknown structure %q; valid: %s", *structure, strings.Join(ds.MapStructures(), ", "))
		case !core.IsScheme(*scheme):
			return usage("unknown scheme %q; valid: %s", *scheme, strings.Join(core.Schemes(), ", "))
		case !ds.SchemeSupports(*scheme, *structure):
			return usage("scheme %q cannot run structure %q", *scheme, *structure)
		}
	}

	// Print the effective seed up front (it defaults to the clock) so any
	// failure — including in the -all path — is reproducible with -seed.
	fmt.Fprintf(stdout, "seed %d\n", *seed)

	pairs := [][2]string{{*structure, *scheme}}
	if *all {
		pairs = allPairs()
	}

	failed := 0
	for _, p := range pairs {
		if err := stress(stdout, p[0], p[1], *threads, *seconds, *keysEach, *shared, *seed); err != nil {
			fmt.Fprintf(stderr, "FAIL %-9s %-12s %v\n", p[0], p[1], err)
			failed++
		} else {
			fmt.Fprintf(stdout, "ok   %-9s %-12s\n", p[0], p[1])
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d pair(s) failed\n", failed)
		return 1
	}
	return 0
}

// allPairs lists every (structure, scheme) pair -all soaks: each map
// structure under each scheme that can run it.
func allPairs() (pairs [][2]string) {
	for _, st := range ds.MapStructures() {
		for _, sc := range core.Names() {
			if ds.SchemeSupports(sc, st) {
				pairs = append(pairs, [2]string{st, sc})
			}
		}
	}
	return pairs
}

// keyBase is the first key of worker tid's private range; the shared hot
// keys sit below every worker's range.
func keyBase(tid int) uint64 { return uint64(tid+1) * 1_000_000 }

func stress(stdout io.Writer, structure, scheme string, threads int, seconds float64, keysEach, shared uint64, seed int64) error {
	m, err := ds.NewMap(structure, ds.Config{
		Scheme:    scheme,
		Core:      core.Options{Threads: threads, EpochFreq: 32, EmptyFreq: 16},
		PoolSlots: 1 << 21,
		Buckets:   1 << 10,
		Poison:    true,
	})
	if err != nil {
		return err
	}

	var (
		stop      atomic.Bool
		exhausted atomic.Bool
		wg        sync.WaitGroup
		mu        sync.Mutex
		firstErr  error
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			stop.Store(true)
		}
		mu.Unlock()
	}
	inst := m.(ds.Instrumented)
	// outOfMemory distinguishes a failed insert caused by pool exhaustion
	// (inevitable for the leaking NoMM baseline in a long soak; possible
	// for any scheme if reservations pin everything) from a model
	// violation: if the pool is essentially full, stop the run cleanly.
	outOfMemory := func() bool {
		st := inst.PoolStats()
		// Per-thread free caches can strand up to ~129 slots each.
		if st.Live()+uint64(threads)*140 >= st.Capacity {
			exhausted.Store(true)
			stop.Store(true)
			return true
		}
		return false
	}
	models := make([]map[uint64]uint64, threads)

	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			model := map[uint64]uint64{}
			models[tid] = model
			base := keyBase(tid)
			rng := rand.New(rand.NewSource(seed + int64(tid)))
			for !stop.Load() {
				if rng.Intn(8) == 0 && shared > 0 {
					// Contention traffic on the shared hot range: results
					// are nondeterministic, but values must never be
					// corrupted (poison = ^uint64(0) - k pattern below).
					k := uint64(rng.Intn(int(shared)))
					switch rng.Intn(3) {
					case 0:
						m.Insert(tid, k, k*2+1)
					case 1:
						m.Remove(tid, k)
					default:
						if v, ok := m.Get(tid, k); ok && v != k*2+1 {
							report(fmt.Errorf("shared key %d corrupted: value %d", k, v))
							return
						}
					}
					continue
				}
				key := base + uint64(rng.Intn(int(keysEach)))
				switch rng.Intn(4) {
				case 0, 1:
					val := rng.Uint64() >> 1
					_, in := model[key]
					if m.Insert(tid, key, val) == in {
						if !in && outOfMemory() {
							return // allocator exhausted: clean early stop
						}
						report(fmt.Errorf("tid %d: Insert(%d) inconsistent with model", tid, key))
						return
					}
					if !in {
						model[key] = val
					}
				case 2:
					_, in := model[key]
					if got := m.Remove(tid, key); got != in {
						if in && !got && outOfMemory() {
							return // e.g. Bonsai's path copy hit the cap
						}
						report(fmt.Errorf("tid %d: Remove(%d) inconsistent with model", tid, key))
						return
					}
					delete(model, key)
				default:
					want, in := model[key]
					got, ok := m.Get(tid, key)
					if ok != in || (ok && got != want) {
						report(fmt.Errorf("tid %d: Get(%d) = (%d,%v), model (%d,%v)", tid, key, got, ok, want, in))
						return
					}
				}
			}
		}(tid)
	}
	time.Sleep(time.Duration(seconds * float64(time.Second)))
	stop.Store(true)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	// Quiescent validation: models vs content, structure invariants, leaks.
	// A Remove that marked a node but lost its unlink CAS leaves the node
	// linked until a traversal passes it, so first Get every key the run
	// touched: each structure's find snips its marked stragglers (the skip
	// list's Sweep also clears the ghost routers no Get crosses), and
	// DrainAll then frees what they retired before the exact leak count.
	for tid := 0; tid < threads; tid++ {
		for k := keyBase(tid); k < keyBase(tid)+keysEach; k++ {
			m.Get(0, k)
		}
	}
	for k := uint64(0); k < shared; k++ {
		m.Get(0, k)
	}
	if sl, ok := m.(*ds.SkipList); ok {
		sl.Sweep(0)
	}
	core.DrainAll(inst.Scheme(), threads)

	keys := m.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return fmt.Errorf("Keys() not strictly sorted at %d", keys[i])
		}
	}
	present := map[uint64]bool{}
	for _, k := range keys {
		present[k] = true
	}
	for tid, model := range models {
		for k, v := range model {
			if !present[k] {
				return fmt.Errorf("tid %d: key %d lost", tid, k)
			}
			if got, ok := m.Get(0, k); !ok || got != v {
				return fmt.Errorf("tid %d: key %d value %d, want %d", tid, k, got, v)
			}
		}
	}
	if exhausted.Load() {
		fmt.Fprintf(stdout, "note %-9s %-12s pool exhausted; stopped early (leak check skipped)\n", structure, scheme)
	}
	if scheme != "none" && !exhausted.Load() {
		st := inst.PoolStats()
		var want uint64
		switch structure {
		case "nmtree":
			want = uint64(2*(len(keys)+3) - 1)
		default:
			want = uint64(len(keys))
		}
		if st.Live() != want {
			return fmt.Errorf("leak: %d live slots, want %d (allocs %d frees %d)",
				st.Live(), want, st.Allocs, st.Frees)
		}
	}
	if b, ok := m.(*ds.Bonsai); ok {
		if err := b.Validate(); err != nil {
			return err
		}
	}
	if sl, ok := m.(*ds.SkipList); ok {
		if err := sl.Validate(); err != nil {
			return err
		}
	}
	return nil
}
