// pipeline: Michael–Scott queues as stages of a processing pipeline.
//
// Three stages (parse → transform → aggregate) connected by two lock-free
// queues, with every stage's dequeues retiring the old dummy nodes through
// 2GEIBR — the highest-retire-rate pattern in this repository (one retire
// per successful dequeue). The example verifies end-to-end conservation
// and prints the reclamation books: allocations equal frees after the
// final drain, even though nodes were freed concurrently with traffic.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ibr"
)

const (
	producers = 2
	stage2ers = 2
	stage3ers = 2
	perProd   = 40_000
)

func main() {
	threads := producers + stage2ers + stage3ers
	q1, err := ibr.NewQueue(ibr.Config{Scheme: "2geibr", Threads: threads})
	if err != nil {
		panic(err)
	}
	q2, err := ibr.NewQueue(ibr.Config{Scheme: "2geibr", Threads: threads})
	if err != nil {
		panic(err)
	}

	var (
		wg        sync.WaitGroup
		stage1Sum atomic.Uint64
		stage3Sum atomic.Uint64
		prodDone  atomic.Int32
		xformDone atomic.Int32
		consumed  atomic.Uint64
	)

	// Stage 1: producers push raw values.
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			defer prodDone.Add(1)
			for i := 1; i <= perProd; i++ {
				v := uint64(tid*perProd + i)
				for !q1.Enqueue(tid, v) {
				}
				stage1Sum.Add(v * 3) // expected post-transform checksum
			}
		}(p)
	}
	// Stage 2: transform (×3) and forward.
	for s := 0; s < stage2ers; s++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			defer xformDone.Add(1)
			for {
				// Load the done flag before the attempt: a Dequeue that
				// fails after every producer finished proves q1 is drained.
				done := prodDone.Load() == producers
				v, ok := q1.Dequeue(tid)
				if !ok {
					if done {
						return
					}
					continue
				}
				for !q2.Enqueue(tid, v*3) {
				}
			}
		}(producers + s)
	}
	// Stage 3: aggregate.
	for c := 0; c < stage3ers; c++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				done := xformDone.Load() == stage2ers
				v, ok := q2.Dequeue(tid)
				if ok {
					stage3Sum.Add(v)
					consumed.Add(1)
					continue
				}
				if done {
					return
				}
			}
		}(producers + stage2ers + c)
	}
	wg.Wait()

	ibr.Drain(q1, threads)
	ibr.Drain(q2, threads)
	s1, s2 := q1.PoolStats(), q2.PoolStats()
	fmt.Printf("items through pipeline: %d (want %d)\n", consumed.Load(), producers*perProd)
	fmt.Printf("checksum in  %d\nchecksum out %d\n", stage1Sum.Load(), stage3Sum.Load())
	fmt.Printf("queue1 books: %d allocated, %d freed, %d live (dummy)\n", s1.Allocs, s1.Frees, s1.Live())
	fmt.Printf("queue2 books: %d allocated, %d freed, %d live (dummy)\n", s2.Allocs, s2.Frees, s2.Live())
	if stage1Sum.Load() != stage3Sum.Load() || consumed.Load() != producers*perProd {
		panic("pipeline lost or corrupted items")
	}
	if s1.Live() != 1 || s2.Live() != 1 {
		panic("queue nodes leaked")
	}
	fmt.Println("conservation holds; every dequeued node was reclaimed in flight")
}
