package ibr_test

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ibr"
)

// A hash map under TagIBR: eight goroutines, one per thread id, insert a
// block of keys each, read them back and remove half, while TagIBR frees
// the removed nodes behind them. After a Drain at quiescence the books
// balance: every removed node was freed, and the live slots are exactly the
// surviving entries.
func ExampleNewMap() {
	const threads, perTid = 8, 5_000
	m, err := ibr.NewMap("hashmap", ibr.Config{Scheme: "tagibr", Threads: threads})
	if err != nil {
		log.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		lost atomic.Uint64
	)
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			base := uint64(tid) * 1_000_000
			for k := uint64(0); k < perTid; k++ {
				m.Insert(tid, base+k, k*k)
			}
			for k := uint64(0); k < perTid; k++ {
				if v, ok := m.Get(tid, base+k); !ok || v != k*k {
					lost.Add(1)
				}
			}
			for k := uint64(0); k < perTid; k += 2 {
				m.Remove(tid, base+k)
			}
		}(tid)
	}
	wg.Wait()

	// Release the bounded residue the in-flight reservations were holding.
	inst := m.(ibr.Instrumented)
	ibr.Drain(inst, threads)
	st := inst.PoolStats()
	fmt.Println("lost updates:", lost.Load())
	fmt.Println("entries remaining:", len(m.Keys()))
	fmt.Printf("allocator: %d allocated, %d freed, %d live\n", st.Allocs, st.Frees, st.Live())
	fmt.Printf("scheme: %s (robust: %v)\n", inst.Scheme().Name(), inst.Scheme().Robust())
	// Output:
	// lost updates: 0
	// entries remaining: 20000
	// allocator: 40000 allocated, 20000 freed, 20000 live
	// scheme: tagibr (robust: true)
}

// POIBR on a persistent Treiber stack (§3.1): the stack is immutable below
// its top, so one instrumented root read protects every node an operation
// can reach. Producers push numbered tasks while a crew pops them; every
// task is popped exactly once, and POIBR frees the popped nodes while the
// traffic continues.
func ExampleNewStack() {
	const producers, consumers, perProd = 3, 4, 20_000
	const threads, tasks = producers + consumers, producers * perProd
	st, err := ibr.NewStack(ibr.Config{Scheme: "poibr", Threads: threads})
	if err != nil {
		log.Fatal(err)
	}
	var (
		wg       sync.WaitGroup
		popped   atomic.Uint64
		sum      atomic.Uint64
		prodDone atomic.Int32
	)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			defer prodDone.Add(1)
			for i := uint64(1); i <= perProd; i++ {
				for !st.Push(tid, uint64(tid)*perProd+i) {
				}
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
					sum.Add(v)
				} else if done {
					return
				}
			}
		}(producers + c)
	}
	wg.Wait()

	// Drain the residue that reservations were protecting. On an
	// oversubscribed machine that can be the whole standing structure:
	// descheduled goroutines hold reservations, and Theorem 2's bound
	// covers every block born before them.
	ibr.Drain(st, threads)
	stats := st.PoolStats()
	fmt.Printf("tasks popped: %d (checksum %d)\n", popped.Load(), sum.Load())
	fmt.Printf("allocator: %d allocated, %d freed, %d live\n", stats.Allocs, stats.Frees, stats.Live())
	fmt.Println("conservation holds:", popped.Load() == tasks && sum.Load() == tasks*(tasks+1)/2)
	// Output:
	// tasks popped: 60000 (checksum 1800030000)
	// allocator: 60000 allocated, 60000 freed, 0 live
	// conservation holds: true
}

// Michael–Scott queues as the stages of a pipeline: producers → q1 →
// transform (×3) → q2 → aggregate. Every dequeue retires the old dummy
// node through 2GEIBR, the highest retire rate in this library. After the
// final Drain each queue holds only its dummy: every dequeued node was
// freed while the traffic ran.
func ExampleNewQueue() {
	const producers, transformers, aggregators, perProd = 2, 2, 2, 20_000
	const threads, items = producers + transformers + aggregators, producers * perProd
	q1, err := ibr.NewQueue(ibr.Config{Scheme: "2geibr", Threads: threads})
	if err != nil {
		log.Fatal(err)
	}
	q2, err := ibr.NewQueue(ibr.Config{Scheme: "2geibr", Threads: threads})
	if err != nil {
		log.Fatal(err)
	}
	var (
		wg                  sync.WaitGroup
		consumed, sum       atomic.Uint64
		prodDone, xformDone atomic.Int32
	)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			defer prodDone.Add(1)
			for i := uint64(1); i <= perProd; i++ {
				for !q1.Enqueue(tid, uint64(tid)*perProd+i) {
				}
			}
		}(p)
	}
	for s := 0; s < transformers; s++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			defer xformDone.Add(1)
			for {
				// Load the done flag before the attempt: a Dequeue that
				// fails after every producer finished proves q1 is drained.
				done := prodDone.Load() == producers
				if v, ok := q1.Dequeue(tid); ok {
					for !q2.Enqueue(tid, v*3) {
					}
				} else if done {
					return
				}
			}
		}(producers + s)
	}
	for c := 0; c < aggregators; c++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				done := xformDone.Load() == transformers
				if v, ok := q2.Dequeue(tid); ok {
					consumed.Add(1)
					sum.Add(v)
				} else if done {
					return
				}
			}
		}(producers + transformers + c)
	}
	wg.Wait()

	ibr.Drain(q1, threads)
	ibr.Drain(q2, threads)
	s1, s2 := q1.PoolStats(), q2.PoolStats()
	fmt.Printf("items through the pipeline: %d (checksum %d)\n", consumed.Load(), sum.Load())
	fmt.Printf("q1 books: %d allocated, %d freed, %d live\n", s1.Allocs, s1.Frees, s1.Live())
	fmt.Printf("q2 books: %d allocated, %d freed, %d live\n", s2.Allocs, s2.Frees, s2.Live())
	fmt.Println("conservation holds:", consumed.Load() == items && sum.Load() == 3*items*(items+1)/2)
	// Output:
	// items through the pipeline: 40000 (checksum 2400060000)
	// q1 books: 40001 allocated, 40000 freed, 1 live
	// q2 books: 40001 allocated, 40000 freed, 1 live
	// conservation holds: true
}

// ceiling bounds a robust scheme's average retired-but-unreclaimed count by
// the structure's size: each tid that can hold a reservation (a staller, or
// a worker descheduled mid-operation) pins at most one node per key plus
// its epoch's births, and each worker holds at most core's scan-step cap
// of 32 × EmptyFreq retirements since its last scan.
func ceiling(res ibr.BenchResult) float64 {
	perReservation := int(res.KeyRange) + res.Threads*res.EpochFreq
	return float64((res.Threads+res.Stalled)*perReservation + res.Threads*32*res.EmptyFreq)
}

// robust reports a scheme's Robust flag. RunBench has just built the same
// pair, so NewMap cannot fail.
func robust(scheme string) bool {
	m, _ := ibr.NewMap("hashmap", ibr.Config{Scheme: scheme, Threads: 1})
	return m.(ibr.Instrumented).Scheme().Robust()
}

// A session cache, the use case the paper's introduction motivates: logins
// insert, logouts remove, under every scheme that can run the hash map.
// Each line checks one run against its own books, never against another
// scheme's run: rankings of throughput or space between short runs do not
// hold from run to run. The map starts with every session, so NoMM's live
// slots are exactly the sessions plus its logins: it leaks every logout.
// Each robust scheme stays below the structure-size ceiling. EBR and the
// other non-robust schemes have no such bound while a worker is
// descheduled (see the stalled-thread example).
func ExampleRunBench() {
	const sessions = 4096
	for _, scheme := range ibr.Schemes() {
		if !ibr.Supports(scheme, "hashmap") {
			continue
		}
		res, err := ibr.RunBench(ibr.BenchConfig{
			Structure: "hashmap", Scheme: scheme, Threads: 8, Duration: 20 * time.Millisecond,
			KeyRange: sessions, Prefill: 1, EpochFreq: 150,
		})
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case scheme == "none":
			fmt.Printf("%-12s leaks every logout: %v\n", scheme, res.Live == sessions+res.InsertOK)
		case robust(scheme):
			fmt.Printf("%-12s robust, avg retired below the ceiling: %v\n", scheme, res.AvgRetired < ceiling(res))
		default:
			fmt.Printf("%-12s not robust\n", scheme)
		}
	}
	// Output:
	// none         leaks every logout: true
	// ebr          not robust
	// hp           robust, avg retired below the ceiling: true
	// he           robust, avg retired below the ceiling: true
	// tagibr       robust, avg retired below the ceiling: true
	// tagibr-faa   robust, avg retired below the ceiling: true
	// tagibr-wcas  robust, avg retired below the ceiling: true
	// tagibr-tpa   robust, avg retired below the ceiling: true
	// 2geibr       robust, avg retired below the ceiling: true
	// hyaline      not robust
	// debra        not robust
}

// The paper's headline property: while two workers churn a hash map, a
// third thread publishes a reservation and parks, as a thread descheduled
// inside an operation does (Fig. 9 beyond 72 threads). Under EBR the
// parked reservation pins every block retired after it: the staller
// re-reserves every StallFor, so the pile climbs through each window to
// one window's removes, and averages above a quarter of that. A robust
// scheme pins only blocks alive when a reservation was published (Theorem
// 2 for the IBRs, the hazard slots for HP and HE): below the ceiling
// however long the stall.
func ExampleRunBench_stalledThread() {
	const stallFor = 30 * time.Millisecond
	for _, scheme := range []string{"ebr", "hp", "he", "tagibr", "tagibr-wcas", "2geibr"} {
		res, err := ibr.RunBench(ibr.BenchConfig{
			Structure: "hashmap", Scheme: scheme, Threads: 2, Stalled: 1, StallFor: stallFor,
			Duration: 4 * stallFor, KeyRange: 2048, EpochFreq: 150,
		})
		if err != nil {
			log.Fatal(err)
		}
		if robust(scheme) {
			fmt.Printf("%-12s robust, avg retired below the ceiling: %v\n", scheme, res.AvgRetired < ceiling(res))
			continue
		}
		perWindow := float64(res.RemoveOK) * float64(stallFor) / float64(res.Elapsed)
		fmt.Printf("%-12s not robust, avg retired above a quarter of a window's removes: %v\n",
			scheme, res.RemoveOK > 0 && res.AvgRetired > perWindow/4)
	}
	// Output:
	// ebr          not robust, avg retired above a quarter of a window's removes: true
	// hp           robust, avg retired below the ceiling: true
	// he           robust, avg retired below the ceiling: true
	// tagibr       robust, avg retired below the ceiling: true
	// tagibr-wcas  robust, avg retired below the ceiling: true
	// 2geibr       robust, avg retired below the ceiling: true
}

// Range scans and TTL expiry over the wire, against a skip-list engine
// served on a loopback port. A PUT's TTL makes its shard's expiry wheel
// retire the key through the normal reclamation path once it lapses. A
// RANGE runs inside one reservation interval per shard (the paper's
// long-running read), and the shards' results merge in ascending order.
func ExampleDialServer() {
	eng, err := ibr.NewEngine(ibr.EngineConfig{Structure: "skiplist", Scheme: "tagibr", Shards: 2})
	if err != nil {
		log.Fatal(err)
	}
	srv := ibr.NewServer(eng, ibr.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown() // drains the engine; Serve then returns nil
		<-served
	}()
	cl, err := ibr.DialServer(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	for k := uint64(100); k < 110; k++ {
		req := ibr.Request{Op: ibr.OpPut, Key: k, Val: k * 10}
		if k == 101 {
			req.TTL = 30 * time.Second // still live for the RANGE below
		}
		if _, err := cl.DoContext(ctx, req); err != nil {
			log.Fatal(err)
		}
	}
	resp, err := cl.DoContext(ctx, ibr.Request{Op: ibr.OpRange, Key: 100, KeyHi: 199, Limit: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("RANGE [100,199] limit 3:", resp.Status, resp.Pairs)

	// A 1 ms TTL lapses within one expiry-wheel slot and remediator tick.
	if _, err := cl.DoContext(ctx, ibr.Request{Op: ibr.OpPut, Key: 7, Val: 70, TTL: time.Millisecond}); err != nil {
		log.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if resp, err = cl.Get(ctx, 7); err != nil || resp.Status == ibr.StatusNotFound {
			break
		}
	}
	fmt.Println("GET 7 after its TTL:", resp.Status, err)
	// Output:
	// RANGE [100,199] limit 3: OK [{100 1000} {101 1010} {102 1020}]
	// GET 7 after its TTL: NOT_FOUND <nil>
}
