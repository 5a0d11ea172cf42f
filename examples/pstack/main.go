// pstack: persistent-object IBR on a Treiber stack.
//
// A work-crew drains a shared LIFO of "tasks" while producers keep pushing
// — the §3.1 scenario: the stack is persistent (immutable below the top),
// so POIBR's single instrumented root read protects every node an operation
// can reach, with no per-pointer work at all.
//
// The example verifies task conservation (every value pushed is popped
// exactly once) and shows POIBR reclaiming popped nodes concurrently.
//
//	go run ./examples/pstack
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ibr"
)

func main() {
	const (
		producers = 3
		consumers = 4
		perProd   = 50_000
	)
	threads := producers + consumers

	st, err := ibr.NewStack(ibr.Config{Scheme: "poibr", Threads: threads})
	if err != nil {
		panic(err)
	}

	var (
		wg       sync.WaitGroup
		pushed   atomic.Uint64
		popped   atomic.Uint64
		sumIn    atomic.Uint64
		sumOut   atomic.Uint64
		prodDone atomic.Int32
	)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			defer prodDone.Add(1)
			for i := 0; i < perProd; i++ {
				task := uint64(tid)*perProd + uint64(i) + 1
				for !st.Push(tid, task) {
				}
				pushed.Add(1)
				sumIn.Add(task)
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				// Load the done flag before the attempt: a Pop that fails
				// after every producer finished proves the stack is drained.
				done := prodDone.Load() == producers
				if v, ok := st.Pop(tid); ok {
					popped.Add(1)
					sumOut.Add(v)
					continue
				}
				if done {
					return
				}
			}
		}(producers + c)
	}
	wg.Wait()

	// At quiescence, drain the residue that active reservations were
	// protecting (on an oversubscribed box that residue can be the whole
	// standing structure — descheduled goroutines hold reservations, and
	// Theorem 2's bound covers every block born before them).
	ibr.Drain(st, threads)

	stats := st.PoolStats()
	fmt.Printf("tasks pushed:  %d (checksum %d)\n", pushed.Load(), sumIn.Load())
	fmt.Printf("tasks popped:  %d (checksum %d)\n", popped.Load(), sumOut.Load())
	fmt.Printf("allocator:     %d allocated, %d freed, %d live\n",
		stats.Allocs, stats.Frees, stats.Live())
	if sumIn.Load() != sumOut.Load() || pushed.Load() != popped.Load() {
		panic("task conservation violated")
	}
	fmt.Println("conservation holds; POIBR reclaimed the popped nodes concurrently")
}
