package server

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go under the race detector, which
// randomizes the scheduler's runnext hand-off and so batches writes on its
// own.
var raceEnabled bool

// countingConn counts the Write calls made on a connection: each is one
// socket write.
type countingConn struct {
	net.Conn
	writes atomic.Uint64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// dialCounting connects a Client whose socket writes are counted.
func dialCounting(tb testing.TB, addr string) (*Client, *countingConn) {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	cc := &countingConn{Conn: conn}
	cl := newClient(cc)
	tb.Cleanup(func() { cl.Close() })
	return cl, cc
}

// getLoop runs callers closed-loop goroutines on cl until n GETs have been
// issued in total, and returns the first error.
func getLoop(cl *Client, callers int, n int64) error {
	return callLoop([]*Client{cl}, callers, n, func(i int64) Request {
		return Request{Op: OpGet, Key: uint64(i)}
	})
}

// callLoop runs callers closed-loop goroutines on each of cls until
// requests mk(1)..mk(n) have been issued in total, and returns the first
// error.
func callLoop(cls []*Client, callers int, n int64, mk func(i int64) Request) error {
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		firstErr atomic.Value
	)
	for _, cl := range cls {
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1); i <= n; i = next.Add(1) {
					if _, err := cl.DoContext(context.Background(), mk(i)); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	return nil
}

// loopbackEngine is ibrd's default shard layout (8 shards, 3 borrowed tids
// each): a connection's requests spread over many shards.
var loopbackEngine = EngineConfig{Shards: 8, WorkersPerShard: 2}

// TestWireCoalescesPipelinedCalls pins write coalescing on both ends of a
// connection (see writeBatchBytes): with 16 closed-loop callers on one
// Client, a client write must carry several requests and a server write
// several responses. Without the yield before a flush, the scheduler's
// runnext hand-off runs each writer as soon as one frame is queued: at
// GOMAXPROCS 1, 2 and 4 that measured 1.0–1.6 requests per client write
// and 1.8–2.6 responses per server write, against 5–8 and 8–15 with it.
func TestWireCoalescesPipelinedCalls(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes runnext, so writes batch without the yield")
	}
	const (
		callers = 16
		calls   = 500
		total   = callers * calls
	)
	addr, srv := startTestServer(t, loopbackEngine, ServerConfig{})
	cl, cc := dialCounting(t, addr)
	if err := getLoop(cl, callers, total); err != nil {
		t.Fatal(err)
	}
	// The server counts a write after it returns, which may be after the
	// client has read it.
	deadline := time.Now().Add(5 * time.Second)
	for srv.ResponsesWritten() < total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.ResponsesWritten(); got != total {
		t.Fatalf("server wrote %d responses, want %d", got, total)
	}
	perClient := float64(total) / float64(cc.writes.Load())
	perServer := float64(total) / float64(srv.ResponseWrites())
	t.Logf("%d calls: %.2f requests per client write, %.2f responses per server write", total, perClient, perServer)
	if perClient < 3 {
		t.Errorf("%.2f requests per client write, want >= 3", perClient)
	}
	if perServer < 3 {
		t.Errorf("%.2f responses per server write, want >= 3", perServer)
	}
}

// BenchmarkServeLoopback prices the served path without the engine's
// observability: Client ↔ Server over 127.0.0.1 on loopbackEngine's shard
// layout. callers=1 and callers=16 are closed-loop GETs on one connection;
// conns=32 spreads 2 GET callers over each of 32 connections, one reader
// each; range-mix is 16 callers on a prefilled skiplist where 1 request in
// 16 is a 1024-key RANGE, whose legs its reader runs shard by shard.
// client_writes/op and server_writes/op are the socket writes each request
// costs on either end (1 with no coalescing); allocs/op counts both ends.
func BenchmarkServeLoopback(b *testing.B) {
	get := func(i int64) Request { return Request{Op: OpGet, Key: uint64(i)} }
	const keys = 1 << 14
	rangeMix := func(i int64) Request {
		k := uint64(i*7919) % keys
		if i%16 == 0 {
			return Request{Op: OpRange, Key: k, KeyHi: k + 1023}
		}
		return Request{Op: OpGet, Key: k}
	}
	for _, c := range []struct {
		name           string
		structure      string
		conns, callers int
		mk             func(int64) Request
	}{
		{"callers=1", "hashmap", 1, 1, get},
		{"callers=16", "hashmap", 1, 16, get},
		{"conns=32", "hashmap", 32, 2, get},
		{"range-mix", "skiplist", 1, 16, rangeMix},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := loopbackEngine
			cfg.Structure = c.structure
			addr, srv := startTestServer(b, cfg, ServerConfig{})
			if c.structure == "skiplist" {
				for k := uint64(0); k < keys; k++ {
					if _, err := srv.Engine().DoContext(context.Background(), Request{Op: OpPut, Key: k, Val: k}); err != nil {
						b.Fatal(err)
					}
				}
			}
			cls := make([]*Client, c.conns)
			var ccs []*countingConn
			for i := range cls {
				var cc *countingConn
				cls[i], cc = dialCounting(b, addr)
				ccs = append(ccs, cc)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := callLoop(cls, c.callers, int64(b.N), c.mk); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			var writes uint64
			for _, cc := range ccs {
				writes += cc.writes.Load()
			}
			b.ReportMetric(float64(writes)/float64(b.N), "client_writes/op")
			b.ReportMetric(float64(srv.ResponseWrites())/float64(b.N), "server_writes/op")
		})
	}
}
