package harness

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"ibr/internal/server"
)

// serve boots an in-process engine and server on 127.0.0.1:0 for one test.
func serve(t *testing.T, structure string) string {
	t.Helper()
	eng, err := server.NewEngine(server.EngineConfig{Structure: structure, Scheme: "tagibr", Shards: 2, WorkersPerShard: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(eng, server.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

func loadConfig(addr, mode string) LoadConfig {
	return LoadConfig{
		Addr: addr, Conns: 2, Pipeline: 2, Duration: 200 * time.Millisecond,
		Mode: mode, KeyRange: 4096, Prefill: 0.5, Seed: 1,
		TTL: 100 * time.Millisecond, Span: 256, ZipfS: 1.07, Timeout: 2 * time.Second,
	}
}

// TestLoadModes runs every workload mode briefly against a skiplist server:
// none may see a protocol or transport error, each must measure operations
// and name its slowest traced request, and range mode must validate scans.
func TestLoadModes(t *testing.T) {
	addr := serve(t, "skiplist")
	for _, mode := range []string{"write", "read", "zipf", "rmw", "range"} {
		t.Run(mode, func(t *testing.T) {
			res, err := Load(context.Background(), loadConfig(addr, mode))
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil || res.ProtoErrs > 0 {
				t.Fatalf("%d protocol errors, first transport error: %v", res.ProtoErrs, res.Err)
			}
			if res.Ops() == 0 {
				t.Fatal("no operations measured")
			}
			if mode == "range" && res.RangeOps == 0 {
				t.Fatal("range mode validated no scans")
			}
			// rmw composites are timed as a whole and name no single trace.
			if mode != "rmw" && (len(res.Slowest) == 0 || res.Slowest[0].Trace == 0) {
				t.Fatalf("no traced slowest op recorded: %+v", res.Slowest)
			}
		})
	}
}

// TestLoadRangeUnsupported: RANGE against a hash map is answered with the
// typed UNSUPPORTED status, which stops the run with ErrRangeUnsupported.
func TestLoadRangeUnsupported(t *testing.T) {
	res, err := Load(context.Background(), loadConfig(serve(t, "hashmap"), "range"))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, ErrRangeUnsupported) {
		t.Fatalf("Err = %v, want ErrRangeUnsupported", res.Err)
	}
}

// TestCheckRangeCountsOnlyOK: a RANGE answered BUSY is not a validated
// scan, so it leaves RangeOps and RangePairs alone without stopping the
// issuer; an OK answer counts once, with its pairs.
func TestCheckRangeCountsOnlyOK(t *testing.T) {
	var o issuer
	req := server.Request{Op: server.OpRange, Key: 10, KeyHi: 20}
	if !o.checkRange(req, server.Response{Status: server.StatusBusy}) {
		t.Fatalf("a BUSY RANGE stopped the issuer: %v", o.err)
	}
	if o.rangeOps != 0 || o.rangePairs != 0 {
		t.Fatalf("a BUSY RANGE counted as %d scans of %d pairs, want none", o.rangeOps, o.rangePairs)
	}
	ok := server.Response{Status: server.StatusOK, Pairs: []server.Pair{{Key: 10, Val: 1}, {Key: 12, Val: 2}}}
	if !o.checkRange(req, ok) {
		t.Fatalf("a valid scan stopped the issuer: %v", o.err)
	}
	if o.rangeOps != 1 || o.rangePairs != 2 {
		t.Fatalf("an OK RANGE counted as %d scans of %d pairs, want 1 of 2", o.rangeOps, o.rangePairs)
	}
}

// TestLoadConfigRejects: configurations the loop cannot run are refused
// before anything is dialed (ibrload -c 0 once indexed an empty client
// slice).
func TestLoadConfigRejects(t *testing.T) {
	for _, mut := range []func(*LoadConfig){
		func(c *LoadConfig) { c.Conns = 0 },
		func(c *LoadConfig) { c.Pipeline = 0 },
		func(c *LoadConfig) { c.Mode = "bogus" },
		func(c *LoadConfig) { c.KeyRange = 0 },
		func(c *LoadConfig) { c.Mode, c.ZipfS = "zipf", 1 },
		func(c *LoadConfig) { c.Mode, c.Span = "range", 0 },
	} {
		cfg := loadConfig("127.0.0.1:1", "write")
		mut(&cfg)
		if _, err := Load(context.Background(), cfg); err == nil || cfg.Validate() == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
}
