package server

import (
	"context"
	"fmt"
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
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		firstErr atomic.Value
	)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1); i <= n; i = next.Add(1) {
				if _, err := cl.Get(context.Background(), uint64(i)); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	return nil
}

// loopbackEngine is ibrd's default shard layout (8 shards × 2 workers): a
// connection's requests spread over many shards, so a worker's completion
// batch rarely fills a server write by itself.
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
// observability: Client ↔ Server over 127.0.0.1, GETs on loopbackEngine's
// hashmap, with 1 and 16 closed-loop callers on one connection.
// client_writes/op and server_writes/op are the socket writes each request
// costs on either end (1 with no coalescing); allocs/op counts both ends.
func BenchmarkServeLoopback(b *testing.B) {
	for _, callers := range []int{1, 16} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			addr, srv := startTestServer(b, loopbackEngine, ServerConfig{})
			cl, cc := dialCounting(b, addr)
			b.ReportAllocs()
			b.ResetTimer()
			if err := getLoop(cl, callers, int64(b.N)); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(cc.writes.Load())/float64(b.N), "client_writes/op")
			b.ReportMetric(float64(srv.ResponseWrites())/float64(b.N), "server_writes/op")
		})
	}
}
