package server

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"ibr/internal/core"
	"ibr/internal/ds"
)

// TestEngineRangeAllSchemes drives OpRange end-to-end through the full
// scheme registry over the skiplist: the fan-out, per-shard scan legs, and
// the k-way merge must return the exact sorted interval contents no matter
// which reclamation scheme guards the traversal.
func TestEngineRangeAllSchemes(t *testing.T) {
	for _, scheme := range core.Schemes() {
		if !ds.SchemeSupports(scheme, "skiplist") {
			continue
		}
		t.Run(scheme, func(t *testing.T) {
			eng, err := NewEngine(EngineConfig{
				Structure: "skiplist", Scheme: scheme,
				Shards: 4, WorkersPerShard: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()
			for k := uint64(0); k < 512; k++ {
				if r, err := eng.DoContext(ctx, Request{Op: OpPut, Key: k, Val: k * 3}); err != nil || r.Status != StatusOK {
					t.Fatalf("Put(%d) = %v/%v", k, r.Status, err)
				}
			}
			// Full interval: every key in [100, 299], ascending, correct values.
			r, err := eng.DoContext(ctx, Request{Op: OpRange, Key: 100, KeyHi: 299})
			if err != nil || r.Status != StatusOK {
				t.Fatalf("Range = %v/%v", r.Status, err)
			}
			if len(r.Pairs) != 200 {
				t.Fatalf("Range [100,299] returned %d pairs, want 200", len(r.Pairs))
			}
			for i, p := range r.Pairs {
				want := uint64(100 + i)
				if p.Key != want || p.Val != want*3 {
					t.Fatalf("pair %d = (%d,%d), want (%d,%d)", i, p.Key, p.Val, want, want*3)
				}
			}
			// Limited scan: exactly Limit pairs, still the smallest keys first.
			r, err = eng.DoContext(ctx, Request{Op: OpRange, Key: 100, KeyHi: 299, Limit: 25})
			if err != nil || r.Status != StatusOK || len(r.Pairs) != 25 {
				t.Fatalf("limited Range = %v/%v, %d pairs", r.Status, err, len(r.Pairs))
			}
			if r.Pairs[0].Key != 100 || r.Pairs[24].Key != 124 {
				t.Fatalf("limited Range spans [%d,%d], want [100,124]", r.Pairs[0].Key, r.Pairs[24].Key)
			}
			// Empty interval above the population: OK with no pairs.
			r, err = eng.DoContext(ctx, Request{Op: OpRange, Key: 600, KeyHi: 700})
			if err != nil || r.Status != StatusOK || len(r.Pairs) != 0 {
				t.Fatalf("empty Range = %v/%v, %d pairs", r.Status, err, len(r.Pairs))
			}
			// Malformed intervals are typed rejections, not errors.
			if r, _ := eng.DoContext(ctx, Request{Op: OpRange, Key: 10, KeyHi: 5}); r.Status != StatusBadRequest {
				t.Fatalf("inverted Range = %v, want BAD_REQUEST", r.Status)
			}
			if r, _ := eng.DoContext(ctx, Request{Op: OpRange, Key: 0, KeyHi: ds.KeyLimit}); r.Status != StatusBadRequest {
				t.Fatalf("Range to KeyLimit = %v, want BAD_REQUEST", r.Status)
			}
			// Three scans fanned out; every shard ran one leg per scan.
			var legs uint64
			for _, st := range eng.Stats() {
				legs += st.RangeOps
			}
			if legs != 3*4 {
				t.Fatalf("range legs = %d, want %d", legs, 3*4)
			}
		})
	}
}

// TestEngineRangeUnsupported: structures without ordered layout answer a
// typed status, not a protocol error, and no shard leg runs.
func TestEngineRangeUnsupported(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Structure: "hashmap", Scheme: "tagibr", Shards: 2, WorkersPerShard: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	r, err := eng.DoContext(context.Background(), Request{Op: OpRange, Key: 0, KeyHi: 10})
	if err != nil || r.Status != StatusUnsupported {
		t.Fatalf("Range on hashmap = %v/%v, want UNSUPPORTED", r.Status, err)
	}
	for i, st := range eng.Stats() {
		if st.RangeOps != 0 {
			t.Fatalf("shard %d ran %d range legs for an unsupported structure", i, st.RangeOps)
		}
	}
}

// TestEngineTTLExpiry: a TTL'd Put arms the shard's expiry wheel, the
// remediator collects the lapsed keys, and their removal retires blocks
// through the normal scheme path tagged SourceExpiry — while untimed keys
// and cancelled timers survive.
func TestEngineTTLExpiry(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Structure: "skiplist", Scheme: "tagibr",
		Shards: 2, WorkersPerShard: 1,
		// Never scan: the retired nodes stay unreclaimed, so the closing
		// Range samples a non-zero backlog.
		EmptyFreq:         1 << 20,
		RemedyInterval:    2 * time.Millisecond,
		ExpiryGranularity: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	// Long-fuse keys: armed but nowhere near lapsing — they pin the
	// pending gauge at a known value.
	const armed = 16
	for k := uint64(1000); k < 1000+armed; k++ {
		if r, _ := eng.DoContext(ctx, Request{Op: OpPut, Key: k, Val: k, TTL: 10 * time.Minute}); r.Status != StatusOK {
			t.Fatalf("armed Put(%d) = %v", k, r.Status)
		}
	}
	pending := 0
	for _, st := range eng.Stats() {
		pending += st.ExpiryPending
	}
	if pending != armed {
		t.Fatalf("expiry pending = %d, want %d", pending, armed)
	}

	// Short-fuse keys expire; their untimed neighbours do not.
	const n = 32
	for k := uint64(0); k < n; k++ {
		req := Request{Op: OpPut, Key: k, Val: k}
		if k%2 == 0 {
			req.TTL = 10 * time.Millisecond
		}
		if r, _ := eng.DoContext(ctx, req); r.Status != StatusOK {
			t.Fatalf("Put(%d) = %v", k, r.Status)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		gone := 0
		for k := uint64(0); k < n; k += 2 {
			if r, _ := eng.DoContext(ctx, Request{Op: OpGet, Key: k}); r.Status == StatusNotFound {
				gone++
			}
		}
		if gone == n/2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d TTL'd keys expired within the deadline", gone, n/2)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for k := uint64(1); k < n; k += 2 {
		if r, _ := eng.DoContext(ctx, Request{Op: OpGet, Key: k}); r.Status != StatusOK {
			t.Fatalf("untimed key %d = %v after expiry sweep, want OK", k, r.Status)
		}
	}

	// A Del cancels the timer; the key's replacement (untimed) survives its
	// predecessor's deadline.
	if r, _ := eng.DoContext(ctx, Request{Op: OpPut, Key: 5000, Val: 1, TTL: 20 * time.Millisecond}); r.Status != StatusOK {
		t.Fatalf("Put(5000) = %v", r.Status)
	}
	if r, _ := eng.DoContext(ctx, Request{Op: OpDel, Key: 5000}); r.Status != StatusOK {
		t.Fatalf("Del(5000) = %v", r.Status)
	}
	if r, _ := eng.DoContext(ctx, Request{Op: OpPut, Key: 5000, Val: 2}); r.Status != StatusOK {
		t.Fatalf("re-Put(5000) = %v", r.Status)
	}
	time.Sleep(60 * time.Millisecond)
	if r, _ := eng.DoContext(ctx, Request{Op: OpGet, Key: 5000}); r.Status != StatusOK || r.Val != 2 {
		t.Fatalf("cancelled-timer key = %v/%d, want OK/2", r.Status, r.Val)
	}

	var expired, retiredExpiry, retiredUser uint64
	for _, st := range eng.Stats() {
		expired += st.Expired
		retiredExpiry += st.RetiredExpiry
		retiredUser += st.RetiredUser
	}
	if expired < n/2 {
		t.Fatalf("expired counter = %d, want >= %d", expired, n/2)
	}
	if retiredExpiry == 0 {
		t.Fatal("no retirements attributed to SourceExpiry")
	}
	if retiredUser == 0 {
		t.Fatal("no retirements attributed to SourceUser (the Del above retired)")
	}

	// One scan over the expired interval, then the /metrics view of the
	// range and TTL families: present and non-zero, one leg per shard.
	if r, err := eng.DoContext(ctx, Request{Op: OpRange, Key: 0, KeyHi: n - 1}); err != nil || r.Status != StatusOK {
		t.Fatalf("Range = %v/%v", r.Status, err)
	}
	text := scrapeMetrics(t, eng)
	for _, s := range []struct{ name, match string }{
		{"ibr_range_legs_total", ""},
		{"ibr_expired_total", ""},
		{"ibr_retired_total", `source="expiry"`},
		{"ibr_unreclaimed_under_scan", ""},
	} {
		if v, samples := seriesSum(text, s.name, s.match); samples == 0 || v == 0 {
			t.Errorf("/metrics %s{%s}: %d samples summing to %v, want present and non-zero", s.name, s.match, samples, v)
		}
	}
	if legs, _ := seriesSum(text, "ibr_range_legs_total", ""); legs != 2 {
		t.Errorf("Σ ibr_range_legs_total = %v, want 2 (one scan × 2 shards)", legs)
	}
}

// TestServerRangeTTLOverWire exercises the full stack — typed client, v2
// frames, range fan-out, TTL expiry — against a served engine.
func TestServerRangeTTLOverWire(t *testing.T) {
	addr, _ := startTestServer(t,
		EngineConfig{
			Structure: "skiplist", Scheme: "hyaline",
			Shards: 4, WorkersPerShard: 2,
			RemedyInterval:    2 * time.Millisecond,
			ExpiryGranularity: time.Millisecond,
		},
		ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	for k := uint64(0); k < 100; k++ {
		if r, err := cl.Put(ctx, k, k+7, 0); err != nil || r.Status != StatusOK {
			t.Fatalf("Put(%d) = %v/%v", k, r.Status, err)
		}
	}
	r, err := cl.Range(ctx, 10, 49, 0)
	if err != nil || r.Status != StatusOK || len(r.Pairs) != 40 {
		t.Fatalf("Range [10,49] = %v/%v, %d pairs", r.Status, err, len(r.Pairs))
	}
	for i, p := range r.Pairs {
		if want := uint64(10 + i); p.Key != want || p.Val != want+7 {
			t.Fatalf("pair %d = (%d,%d), want (%d,%d)", i, p.Key, p.Val, want, want+7)
		}
	}
	if r, err = cl.Range(ctx, 0, 99, 7); err != nil || len(r.Pairs) != 7 {
		t.Fatalf("limited Range = %v/%v, %d pairs", r.Status, err, len(r.Pairs))
	}

	// TTL over the wire: the client's Put carries the deadline; the served
	// engine expires it and subsequent reads and scans agree.
	for k := uint64(200); k < 210; k++ {
		if r, err := cl.Put(ctx, k, 1, 15*time.Millisecond); err != nil || r.Status != StatusOK {
			t.Fatalf("TTL Put(%d) = %v/%v", k, r.Status, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r, err := cl.Get(ctx, 205); err != nil {
			t.Fatalf("Get: %v", err)
		} else if r.Status == StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("TTL'd key never expired over the wire")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if r, err = cl.Range(ctx, 200, 209, 0); err != nil || r.Status != StatusOK {
		t.Fatalf("post-expiry Range = %v/%v", r.Status, err)
	}
	for _, p := range r.Pairs {
		if r2, _ := cl.Get(ctx, p.Key); r2.Status == StatusNotFound {
			t.Fatalf("Range returned key %d that Get says is expired", p.Key)
		}
	}
}

// TestServerV1CompatOverWire: a legacy 29-byte v1 frame (no KeyHi, TTL, or
// Limit) still round-trips against the v2 server — the length prefix is the
// version discriminator — AND the responses come back in the legacy
// 13-byte layout. The reader below is a faithful v1 client: it bounds
// announced response lengths at respPayloadV1Len, so any v2-encoded answer
// fails the test immediately.
func TestServerV1CompatOverWire(t *testing.T) {
	addr, _ := startTestServer(t,
		EngineConfig{Shards: 2, WorkersPerShard: 1}, ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	roundTrip := func(id uint32, op Op, key, val uint64) Response {
		t.Helper()
		if _, err := conn.Write(appendRequestV1(nil, id, op, key, val, 0)); err != nil {
			t.Fatal(err)
		}
		frame, err := readFrame(br, respPayloadV1Len, nil)
		if err != nil {
			t.Fatalf("v1-bounded readFrame: %v", err)
		}
		gotID, resp, err := parseResponseV1(frame)
		if err != nil {
			t.Fatal(err)
		}
		if gotID != id {
			t.Fatalf("response id %d, want %d", gotID, id)
		}
		return resp
	}

	if r := roundTrip(1, OpPut, 42, 4242); r.Status != StatusOK {
		t.Fatalf("v1 Put = %v", r.Status)
	}
	if r := roundTrip(2, OpGet, 42, 0); r.Status != StatusOK || r.Val != 4242 {
		t.Fatalf("v1 Get = %v/%d, want OK/4242", r.Status, r.Val)
	}
	if r := roundTrip(3, OpDel, 42, 0); r.Status != StatusOK {
		t.Fatalf("v1 Del = %v", r.Status)
	}
	if r := roundTrip(4, OpGet, 42, 0); r.Status != StatusNotFound {
		t.Fatalf("v1 Get after Del = %v, want NOT_FOUND", r.Status)
	}
	// Op 5 (RANGE) does not exist in the v1 dialect and its result could
	// not be framed in 13 bytes anyway: the server must reject it, not
	// answer with pairs.
	if r := roundTrip(5, OpRange, 0, 0); r.Status != StatusBadRequest {
		t.Fatalf("v1-framed RANGE = %v, want BAD_REQUEST", r.Status)
	}
	// The connection survives the rejection.
	if r := roundTrip(6, OpPing, 0, 7); r.Status != StatusOK || r.Val != 7 {
		t.Fatalf("Ping after rejected RANGE = %v/%d, want OK/7", r.Status, r.Val)
	}
}

// TestServerMixedVersionsOneConn pins per-request dialect selection: v1 and
// v2 frames interleaved on one connection each get answers in their own
// framing.
func TestServerMixedVersionsOneConn(t *testing.T) {
	addr, _ := startTestServer(t,
		EngineConfig{Shards: 2, WorkersPerShard: 1}, ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	// v2 Put, then v1 Get of the same key, then v2 Get: one at a time so
	// the response order is deterministic.
	if _, err := conn.Write(appendRequest(nil, 1, Request{Op: OpPut, Key: 9, Val: 90})); err != nil {
		t.Fatal(err)
	}
	frame, err := readFrame(br, maxRespFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id, r, err := parseResponse(frame); err != nil || id != 1 || r.Status != StatusOK {
		t.Fatalf("v2 Put = id %d %+v err %v", id, r, err)
	}
	if _, err := conn.Write(appendRequestV1(nil, 2, OpGet, 9, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if frame, err = readFrame(br, respPayloadV1Len, nil); err != nil {
		t.Fatalf("v1 response after v2 traffic: %v", err)
	}
	if id, r, err := parseResponseV1(frame); err != nil || id != 2 || r.Status != StatusOK || r.Val != 90 {
		t.Fatalf("v1 Get = id %d %+v err %v, want OK/90", id, r, err)
	}
	if _, err := conn.Write(appendRequest(nil, 3, Request{Op: OpGet, Key: 9})); err != nil {
		t.Fatal(err)
	}
	if frame, err = readFrame(br, maxRespFrame, nil); err != nil {
		t.Fatal(err)
	}
	if id, r, err := parseResponse(frame); err != nil || id != 3 || r.Status != StatusOK || r.Val != 90 {
		t.Fatalf("v2 Get = id %d %+v err %v, want OK/90", id, r, err)
	}
}
