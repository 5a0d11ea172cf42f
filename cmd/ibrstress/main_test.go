package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ibr/internal/core"
	"ibr/internal/ds"
)

// TestRunUsage: unknown names, unparsable flags and a pair the scheme
// cannot run exit 2 before soaking anything, with the refusal harness.Run
// and ibrd give for the same pair; -h exits 0; a short soak of a supported
// pair exits 0 with its ok line.
func TestRunUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
		msg  string
	}{
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
		{[]string{"-r", "nope"}, 2, `unknown structure "nope"`},
		{[]string{"-d", "nope"}, 2, `unknown scheme "nope"`},
		{[]string{"-r", "bonsai", "-d", "hp"}, 2, `scheme "hp" cannot run structure "bonsai"`},
		{[]string{"-h"}, 0, "Usage of ibrstress"},
		{[]string{"-r", "hashmap", "-d", "ebr", "-t", "2", "-i", "0.05"}, 0, "ok   hashmap   ebr"},
	} {
		var out bytes.Buffer
		if rc := run(tc.args, &out, &out); rc != tc.want || !strings.Contains(out.String(), tc.msg) {
			t.Errorf("run(%q) = %d, want %d with %q; output:\n%s", tc.args, rc, tc.want, tc.msg, out.String())
		}
	}
}

// soakSeed seeds every TestSoak subtest; `ibrstress -r R -d D -seed 1`
// replays a map pair's key streams.
const soakSeed = 1

// TestSoak is `ibrstress -all -i 0.5` as a test: one subtest per pair -all
// runs, each at the command's defaults (4 threads, 128 keys per thread, 16
// shared keys) for 0.5 s, or 0.05 s under -short. It also soaks the stack
// and the queue under every scheme that can run them. `make testdebug`
// runs it with the use-after-free assertions compiled in.
func TestSoak(t *testing.T) {
	seconds := 0.5
	if testing.Short() {
		seconds = 0.05
	}
	for _, p := range allPairs() {
		t.Run(p[0]+"/"+p[1], func(t *testing.T) {
			var out bytes.Buffer
			if err := stress(&out, p[0], p[1], 4, seconds, 128, 16, soakSeed); err != nil {
				t.Fatalf("seed %d: %v", soakSeed, err)
			}
			if out.Len() > 0 {
				t.Log(out.String())
			}
		})
	}
	for _, st := range []string{"stack", "msqueue"} {
		for _, sc := range core.Names() {
			if ds.SchemeSupports(sc, st) {
				t.Run(st+"/"+sc, func(t *testing.T) { soakContainer(t, st, sc, 4, seconds) })
			}
		}
	}
}

// soakContainer soaks a stack or a queue: threads workers each push unique
// values (the worker id above seqBits, the worker's push count below) or
// pop, at random, and the values left are popped at quiescence. Every
// value out must have been pushed and come out once, and out plus drained
// must equal pushed. For the queue, each producer's values must come out in
// the order it enqueued them: in every worker's pops, and in the drain after
// all of them. After DrainAll only the queue's dummy node may be live.
func soakContainer(t *testing.T, structure, scheme string, threads int, seconds float64) {
	const seqBits = 40
	cfg := ds.Config{
		Scheme:    scheme,
		Core:      core.Options{Threads: threads, EpochFreq: 32, EmptyFreq: 16},
		PoolSlots: 1 << 20,
		Poison:    true,
	}
	var (
		push  func(tid int, v uint64) bool
		pop   func(tid int) (uint64, bool)
		inst  ds.Instrumented
		dummy uint64
	)
	fifo := structure == "msqueue"
	if fifo {
		q, err := ds.NewQueue(cfg)
		if err != nil {
			t.Fatal(err)
		}
		push, pop, inst, dummy = q.Enqueue, q.Dequeue, q, 1
	} else {
		s, err := ds.NewStack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		push, pop, inst = s.Push, s.Pop, s
	}

	pushed := make([]uint64, threads)   // worker p pushed sequence numbers 0..pushed[p]-1
	popped := make([][]uint64, threads) // each worker's pops, in order
	var stop, exhausted atomic.Bool
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(soakSeed + int64(tid)))
			for !stop.Load() {
				if rng.Intn(2) == 0 {
					if !push(tid, uint64(tid)<<seqBits|pushed[tid]) {
						exhausted.Store(true) // Push fails only when the pool is full
						stop.Store(true)
						return
					}
					pushed[tid]++
				} else if v, ok := pop(tid); ok {
					popped[tid] = append(popped[tid], v)
				}
			}
		}(tid)
	}
	time.Sleep(time.Duration(seconds * float64(time.Second)))
	stop.Store(true)
	wg.Wait()
	var drained []uint64
	for v, ok := pop(0); ok; v, ok = pop(0) {
		drained = append(drained, v)
	}

	outs := make([][]uint8, threads) // times each pushed value came out
	for p := range outs {
		outs[p] = make([]uint8, pushed[p])
	}
	// check accounts for one consumer's values; next[p] is the lowest
	// sequence number of producer p that the consumer may still see.
	check := func(who string, vals []uint64, next []uint64) {
		t.Helper()
		for _, v := range vals {
			p, seq := v>>seqBits, v&(1<<seqBits-1)
			if p >= uint64(threads) || seq >= pushed[p] {
				t.Fatalf("seed %d: %s got %#x, which no worker pushed", soakSeed, who, v)
			}
			if outs[p][seq]++; outs[p][seq] > 1 {
				t.Fatalf("seed %d: %s got %#x, which already came out", soakSeed, who, v)
			}
			if fifo && seq < next[p] {
				t.Fatalf("seed %d: %s got producer %d's value %d after its value %d", soakSeed, who, p, seq, next[p]-1)
			}
			next[p] = seq + 1
		}
	}
	after := make([]uint64, threads)
	for tid, vals := range popped {
		next := make([]uint64, threads)
		check(fmt.Sprintf("worker %d", tid), vals, next)
		for p := range next {
			after[p] = max(after[p], next[p])
		}
	}
	check("the drain", drained, after)
	for p := range outs {
		for seq, n := range outs[p] {
			if n != 1 {
				t.Fatalf("seed %d: producer %d's value %d came out %d times", soakSeed, p, seq, n)
			}
		}
	}

	if exhausted.Load() {
		t.Logf("%s %s: pool exhausted; stopped early (leak check skipped)", structure, scheme)
		return
	}
	if scheme == "none" {
		return
	}
	core.DrainAll(inst.Scheme(), threads)
	if live := inst.PoolStats().Live(); live != dummy {
		t.Fatalf("leak: %d live slots after draining, want %d", live, dummy)
	}
}
