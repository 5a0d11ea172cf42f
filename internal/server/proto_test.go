package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"
)

// seedRequests are the v2 request frames the round-trip test and the fuzz
// targets start from.
var seedRequests = []struct {
	id  uint32
	req Request
}{
	{0, Request{Op: OpPing, Val: 42}},
	{1, Request{Op: OpGet, Key: 7, TraceID: 0xDEADBEEF}},
	{2, Request{Op: OpPut, Key: ^uint64(0), Val: ^uint64(0), TTL: 250 * time.Millisecond, TraceID: ^uint64(0)}},
	{3, Request{Op: OpRange, Key: 10, KeyHi: 1 << 61, Limit: 4096}},
	{4294967295, Request{Op: OpDel, Key: 1 << 61, TraceID: 1}},
}

// seedV1Request is the legacy 29-byte frame the v1-compat test parses.
func seedV1Request() []byte { return appendRequestV1(nil, 17, OpPut, 5, 99, 0xABC) }

func TestProtoRequestRoundTrip(t *testing.T) {
	var wire []byte
	for _, f := range seedRequests {
		wire = appendRequest(wire, f.id, f.req)
	}
	br := bufio.NewReader(bytes.NewReader(wire))
	buf := make([]byte, reqPayloadV2Len)
	for _, want := range seedRequests {
		p, err := readFrame(br, maxReqFrame, buf)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		id, req, legacy, err := parseRequest(p)
		if err != nil {
			t.Fatalf("parseRequest: %v", err)
		}
		if id != want.id || req != want.req || legacy {
			t.Fatalf("got (%d %+v legacy=%v), want %+v", id, req, legacy, want)
		}
	}
	if _, err := readFrame(br, maxReqFrame, buf); err == nil {
		t.Fatal("expected EOF after last frame")
	}
}

// TestProtoRequestV1Compat pins the evolvability promise: a 29-byte legacy
// frame still parses, with the v2-only fields zero.
func TestProtoRequestV1Compat(t *testing.T) {
	br := bufio.NewReader(bytes.NewReader(seedV1Request()))
	p, err := readFrame(br, maxReqFrame, nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	id, req, legacy, err := parseRequest(p)
	if err != nil {
		t.Fatalf("parseRequest: %v", err)
	}
	want := Request{Op: OpPut, Key: 5, Val: 99, TraceID: 0xABC}
	if id != 17 || req != want {
		t.Fatalf("got (%d %+v), want (17 %+v)", id, req, want)
	}
	if !legacy {
		t.Fatal("29-byte frame not flagged legacy: its response would use the v2 layout")
	}
	if req.TTL != 0 || req.KeyHi != 0 || req.Limit != 0 {
		t.Fatalf("v1 request must zero-fill v2 fields: %+v", req)
	}
}

// TestProtoResponseV1Compat pins the response direction of the promise: the
// legacy encoding is exactly 13 payload bytes, readable by a pre-range
// client whose readFrame bound is 13.
func TestProtoResponseV1Compat(t *testing.T) {
	wire := appendResponseV1(nil, 23, Response{Status: StatusExists, Val: 0xFEED})
	if len(wire) != 4+respPayloadV1Len {
		t.Fatalf("v1 response frame is %d bytes, want %d", len(wire), 4+respPayloadV1Len)
	}
	// A v1 client bounds announced lengths at exactly respPayloadV1Len.
	p, err := readFrame(bufio.NewReader(bytes.NewReader(wire)), respPayloadV1Len, nil)
	if err != nil {
		t.Fatalf("v1-bounded readFrame: %v", err)
	}
	id, resp, err := parseResponseV1(p)
	if err != nil {
		t.Fatalf("parseResponseV1: %v", err)
	}
	if id != 23 || resp.Status != StatusExists || resp.Val != 0xFEED {
		t.Fatalf("got (%d %+v), want (23 EXISTS 0xFEED)", id, resp)
	}
	// The v2 encoding must NOT pass a v1 reader: that asymmetry is the bug
	// class this test exists for.
	v2 := appendResponse(nil, 23, Response{Status: StatusExists, Val: 0xFEED})
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(v2)), respPayloadV1Len, nil); err == nil {
		t.Fatal("v2 response accepted by a v1-bounded reader")
	}
}

func TestProtoTTLWire(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want uint32
	}{
		{0, 0},
		{-time.Second, 0},
		{time.Millisecond, 1},
		{200 * time.Microsecond, 1}, // rounds up, never silently immortal
		{1500 * time.Microsecond, 2},
		{time.Hour, 3600_000},
		{100 * 24 * 365 * time.Hour, ^uint32(0)}, // ~100 years clamps at wire max
	}
	for _, c := range cases {
		if got := ttlToWire(c.in); got != c.want {
			t.Errorf("ttlToWire(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

// seedResponses are the v2 response frames the round-trip test and the
// response fuzz target start from: no pairs, one pair, and several.
var seedResponses = []struct {
	id uint32
	r  Response
}{
	{9, Response{Status: StatusExists, Val: 77}},
	{10, Response{Status: StatusOK}},
	{12, Response{Status: StatusOK, Pairs: []Pair{{5, 11}}}},
	{11, Response{Status: StatusOK, Pairs: []Pair{{1, 100}, {2, 200}, {^uint64(0) - 1, ^uint64(0)}}}},
}

func TestProtoResponseRoundTrip(t *testing.T) {
	var wire []byte
	for _, c := range seedResponses {
		wire = appendResponse(wire, c.id, c.r)
	}
	br := bufio.NewReader(bytes.NewReader(wire))
	var buf []byte
	for _, want := range seedResponses {
		p, err := readFrame(br, maxRespFrame, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = p[:0]
		id, r, err := parseResponse(p)
		if err != nil {
			t.Fatalf("parseResponse: %v", err)
		}
		if id != want.id || r.Status != want.r.Status || r.Val != want.r.Val {
			t.Fatalf("got (%d %+v), want %+v", id, r, want)
		}
		if len(r.Pairs) != len(want.r.Pairs) {
			t.Fatalf("got %d pairs, want %d", len(r.Pairs), len(want.r.Pairs))
		}
		for i := range r.Pairs {
			if r.Pairs[i] != want.r.Pairs[i] {
				t.Fatalf("pair %d: got %+v, want %+v", i, r.Pairs[i], want.r.Pairs[i])
			}
		}
	}
}

func TestProtoRejectsBadLengths(t *testing.T) {
	// A response-sized frame is not a valid request length.
	var wire []byte
	wire = appendResponse(wire, 1, Response{Status: StatusOK})
	if p, err := readFrame(bufio.NewReader(bytes.NewReader(wire)), maxReqFrame, nil); err == nil {
		if _, _, _, perr := parseRequest(p); perr == nil {
			t.Fatal("response-sized frame accepted as a request")
		}
	}
	// Absurd length prefix: reject before attempting to read the payload.
	huge := binary.BigEndian.AppendUint32(nil, maxRespFrame+1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(huge)), maxRespFrame, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// A request length that is neither v1 nor v2 is a desync.
	odd := binary.BigEndian.AppendUint32(nil, 31)
	odd = append(odd, make([]byte, 31)...)
	p, err := readFrame(bufio.NewReader(bytes.NewReader(odd)), maxReqFrame, nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if _, _, _, perr := parseRequest(p); perr == nil {
		t.Fatal("31-byte request accepted")
	}
	// A response whose announced pair count disagrees with its length.
	bad := appendResponse(nil, 3, Response{Status: StatusOK, Pairs: []Pair{{1, 2}}})
	binary.BigEndian.PutUint32(bad[4+13:], 2) // claim 2 pairs, carry 1
	p, err = readFrame(bufio.NewReader(bytes.NewReader(bad)), maxRespFrame, nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if _, _, perr := parseResponse(p); perr == nil {
		t.Fatal("pair-count mismatch accepted")
	}
}

// TestFrameCodecAllocs: reading a request frame or a pair-less response
// frame from a bufio.Reader into a reused buffer, and parsing it, allocates
// nothing, so neither connection reader touches the heap per frame.
func TestFrameCodecAllocs(t *testing.T) {
	const runs = 100
	reader := func(frame []byte) *bufio.Reader { // AllocsPerRun calls f runs+1 times
		return bufio.NewReader(bytes.NewReader(bytes.Repeat(frame, runs+1)))
	}
	buf := make([]byte, 0, maxReqFrame)
	var err error

	br := reader(appendRequest(nil, 7, Request{Op: OpPut, Key: 42, Val: 1, TTL: time.Second, TraceID: 9}))
	if n := testing.AllocsPerRun(runs, func() {
		var p []byte
		if p, err = readFrame(br, maxReqFrame, buf); err == nil {
			_, _, _, err = parseRequest(p)
		}
	}); n != 0 || err != nil {
		t.Errorf("request frame: %v allocations per read and parse (error %v), want 0", n, err)
	}

	br = reader(appendResponse(nil, 7, Response{Status: StatusOK, Val: 42}))
	if n := testing.AllocsPerRun(runs, func() {
		var p []byte
		if p, err = readFrame(br, maxRespFrame, buf); err == nil {
			_, _, err = parseResponse(p)
		}
	}); n != 0 || err != nil {
		t.Errorf("response frame: %v allocations per read and parse (error %v), want 0", n, err)
	}
}

// BenchmarkProto prices the frame codec alone, per op: one v2 request
// through appendRequest, readFrame and parseRequest, or one pair-less v2
// response through appendResponse, readFrame and parseResponse.
func BenchmarkProto(b *testing.B) {
	var (
		wire []byte
		rd   bytes.Reader
		br   = bufio.NewReader(&rd)
		buf  = make([]byte, 0, maxReqFrame)
	)
	next := func(max int) []byte {
		rd.Reset(wire)
		br.Reset(&rd)
		p, err := readFrame(br, max, buf)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	b.Run("request", func(b *testing.B) {
		req := Request{Op: OpPut, Key: 42, Val: 1, TTL: time.Second, TraceID: 9}
		b.ReportAllocs()
		for b.Loop() {
			wire = appendRequest(wire[:0], 7, req)
			if _, _, _, err := parseRequest(next(maxReqFrame)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("response", func(b *testing.B) {
		resp := Response{Status: StatusOK, Val: 42}
		b.ReportAllocs()
		for b.Loop() {
			wire = appendResponse(wire[:0], 7, resp)
			if _, _, err := parseResponse(next(maxRespFrame)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// FuzzParseRequest: every request payload either fails to parse or
// re-encodes byte-for-byte through the encoder of the dialect it arrived
// in, so the server never acts on a request it would describe differently.
func FuzzParseRequest(f *testing.F) {
	for _, s := range seedRequests {
		f.Add(appendRequest(nil, s.id, s.req)[4:])
	}
	f.Add(seedV1Request()[4:])
	f.Add(make([]byte, 31))
	f.Fuzz(func(t *testing.T, p []byte) {
		id, req, legacy, err := parseRequest(p)
		if err != nil {
			return
		}
		var wire []byte
		if legacy {
			if req.KeyHi != 0 || req.TTL != 0 || req.Limit != 0 {
				t.Fatalf("v1 payload parsed with v2-only fields: %+v", req)
			}
			wire = appendRequestV1(nil, id, req.Op, req.Key, req.Val, req.TraceID)
		} else {
			wire = appendRequest(nil, id, req)
		}
		if n := binary.BigEndian.Uint32(wire); int(n) != len(p) {
			t.Fatalf("re-encoded length prefix %d, payload was %d bytes", n, len(p))
		}
		if !bytes.Equal(wire[4:], p) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", p, wire[4:])
		}
	})
}

// FuzzParseResponse: every response payload either fails to parse or
// re-encodes byte-for-byte through appendResponse, so the client never
// hands a caller a response the server would have encoded differently.
func FuzzParseResponse(f *testing.F) {
	for _, s := range seedResponses {
		f.Add(appendResponse(nil, s.id, s.r)[4:])
	}
	f.Add(appendResponseV1(nil, 23, Response{Status: StatusExists, Val: 0xFEED})[4:])
	f.Fuzz(func(t *testing.T, p []byte) {
		id, r, err := parseResponse(p)
		if err != nil {
			return
		}
		wire := appendResponse(nil, id, r)
		if n := binary.BigEndian.Uint32(wire); int(n) != len(p) {
			t.Fatalf("re-encoded length prefix %d, payload was %d bytes", n, len(p))
		}
		if !bytes.Equal(wire[4:], p) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", p, wire[4:])
		}
	})
}

// FuzzReadFrame: readFrame never panics on an arbitrary stream, never
// returns a payload longer than its bound, and returns exactly the bytes the
// length prefix announced.
func FuzzReadFrame(f *testing.F) {
	var wire []byte
	for _, s := range seedRequests {
		wire = appendRequest(wire, s.id, s.req)
	}
	f.Add(wire, uint32(maxReqFrame))
	f.Add(seedV1Request(), uint32(respPayloadV1Len))
	f.Add(appendResponse(nil, 11, Response{Pairs: []Pair{{1, 100}, {2, 200}}}), uint32(maxRespFrame))
	f.Add(binary.BigEndian.AppendUint32(nil, maxRespFrame+1), uint32(maxRespFrame))
	f.Fuzz(func(t *testing.T, data []byte, bound uint32) {
		limit := int(bound % (maxRespFrame + 1))
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for off := 0; ; {
			p, err := readFrame(br, limit, buf)
			if err != nil {
				return
			}
			if len(p) > limit {
				t.Fatalf("payload of %d bytes exceeds bound %d", len(p), limit)
			}
			if n := int(binary.BigEndian.Uint32(data[off:])); n != len(p) || !bytes.Equal(p, data[off+4:off+4+n]) {
				t.Fatalf("frame at %d: got %d bytes, prefix announced %d", off, len(p), n)
			}
			off += 4 + len(p)
			buf = p[:0]
		}
	})
}

// streamConn is the server end of one fuzzed connection. Reads drain the
// fuzz input and then report EOF, as from a client that half-closed after
// sending it; writes, deadlines and Close go to a net.Pipe whose other end
// the test reads the responses from.
type streamConn struct {
	net.Conn
	in *bytes.Reader
}

func (c *streamConn) Read(p []byte) (int, error) { return c.in.Read(p) }

// wireKey names one request frame for matching responses: its id and the
// dialect it was framed in, which its response must be framed in too.
type wireKey struct {
	id     uint32
	legacy bool
}

// expectStream walks a request byte stream the way the connection reader
// frames it, independently of readFrame and parseRequest: a 4-byte
// big-endian length, then a payload of exactly 29 (v1) or 45 (v2) bytes. It
// returns every complete frame before the first framing violation — a
// short header, a length other than 29 or 45, or a truncated payload — the
// number of those frames the server must reject (an unknown op, or a
// v1-framed op above DEL), and whether a violation ends the stream.
func expectStream(data []byte) (frames []wireKey, rejected int, broken bool) {
	for off := 0; off < len(data); {
		if len(data)-off < 4 {
			return frames, rejected, true
		}
		n := uint64(binary.BigEndian.Uint32(data[off:]))
		if (n != 29 && n != 45) || uint64(len(data)-off-4) < n {
			return frames, rejected, true
		}
		p := data[off+4 : off+4+int(n)]
		k := wireKey{id: binary.BigEndian.Uint32(p), legacy: n == 29}
		if op := Op(p[4]); op < OpPing || op > OpRange || (k.legacy && op > OpDel) {
			rejected++
		}
		frames = append(frames, k)
		off += 4 + int(n)
	}
	return frames, rejected, false
}

// FuzzServeStream feeds arbitrary byte streams through Server.handle, the
// whole connection path: framing, parsing, admission, execution under
// borrowed tids and the coalescing writer, on one engine shared across inputs. Every complete
// frame before the first framing violation must get exactly one response
// in its own dialect (matched by id as a multiset), a violation must drop
// the connection and count it once, each rejected frame must be counted,
// and handle must return.
func FuzzServeStream(f *testing.F) {
	eng, err := NewEngine(EngineConfig{Structure: "skiplist", Shards: 2, WorkersPerShard: 1})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(eng, ServerConfig{})
	f.Cleanup(srv.Shutdown)

	var stream []byte
	for _, s := range seedRequests {
		stream = appendRequest(stream, s.id, s.req)
	}
	f.Add(stream)
	f.Add(append(seedV1Request(), appendRequestV1(nil, 18, OpRange, 1, 2, 0)...))
	f.Add(appendRequest(seedV1Request(), 9, Request{Op: 0, Key: 3}))
	f.Add(append(appendRequest(nil, 5, Request{Op: OpGet, Key: 5}), 0, 0, 0, 30))
	f.Add(appendRequest(nil, 6, Request{Op: OpPut, Key: 6, Val: 6})[:20])
	f.Add(binary.BigEndian.AppendUint32(nil, maxReqFrame+1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, rejected, broken := expectStream(data)
		dropped0, rejected0 := srv.ProtoDropped(), srv.ProtoRejected()

		cli, sc := net.Pipe()
		defer cli.Close()
		handled := make(chan struct{})
		srv.connWG.Add(1)
		go func() {
			defer close(handled)
			srv.handle(&streamConn{Conn: sc, in: bytes.NewReader(data)})
		}()

		// handle closes the pipe once the last response is flushed, so
		// EOF ends the read; the deadline turns a wedged handler into a
		// failure instead of a hang.
		cli.SetReadDeadline(time.Now().Add(10 * time.Second))
		want := map[wireKey]int{}
		for _, k := range frames {
			want[k]++
		}
		br := bufio.NewReader(cli)
		var buf []byte
		for {
			p, err := readFrame(br, maxRespFrame, buf)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatalf("no EOF from the server 10s into a %d-byte stream", len(data))
				}
				break
			}
			k := wireKey{id: binary.BigEndian.Uint32(p), legacy: len(p) == respPayloadV1Len}
			if !k.legacy {
				if _, _, err := parseResponse(p); err != nil {
					t.Fatalf("malformed response: %v", err)
				}
			}
			if want[k] == 0 {
				t.Fatalf("response %+v answers no outstanding request frame", k)
			}
			want[k]--
			buf = p[:0]
		}
		for k, n := range want {
			if n != 0 {
				t.Fatalf("%d request frame(s) %+v got no response", n, k)
			}
		}
		select {
		case <-handled:
		case <-time.After(10 * time.Second):
			t.Fatal("handle did not return after closing the connection")
		}
		wantDropped := uint64(0)
		if broken {
			wantDropped = 1
		}
		if got := srv.ProtoDropped() - dropped0; got != wantDropped {
			t.Fatalf("ProtoDropped rose by %d, want %d (broken framing: %v)", got, wantDropped, broken)
		}
		if got := srv.ProtoRejected() - rejected0; got != uint64(rejected) {
			t.Fatalf("ProtoRejected rose by %d, want %d", got, rejected)
		}
	})
}
