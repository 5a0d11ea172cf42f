// Package server is the serving layer over the IBR data structures: a
// sharded key-value engine (engine.go) fronted by a length-prefixed binary
// protocol (this file), a TCP server with graceful drain (server.go), and a
// pipelined client (client.go) shared by cmd/ibrload and the tests.
//
// The architecturally new piece is the tid lease: every reclamation scheme
// in internal/core assumes a small fixed thread-id space with one goroutine
// per tid, while a network server faces an unbounded set of connection
// goroutines. The engine closes that gap by giving each shard a private
// pool of worker goroutines that each hold one scheme tid for their whole
// lifetime; connection goroutines never touch a scheme — they enqueue
// requests onto per-shard MPSC queues and the leased workers execute them
// in batches (see DESIGN.md §"Serving layer").
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Op is a wire operation code.
type Op uint8

const (
	// OpPing is a no-op round trip; the server echoes Val.
	OpPing Op = 1 + iota
	// OpGet looks a key up: StatusOK + value, or StatusNotFound.
	OpGet
	// OpPut inserts key→val if absent: StatusOK, or StatusExists. The
	// insert-if-absent semantics mirror ds.Map.Insert exactly, which keeps
	// server histories checkable by internal/lincheck. A Put may carry a
	// TTL; the engine's expiry wheel then retires the key when it lapses.
	OpPut
	// OpDel removes a key: StatusOK, or StatusNotFound.
	OpDel
	// OpRange scans [Key, KeyHi] in ascending key order, returning up to
	// Limit pairs. The whole scan executes inside one scheme reservation
	// interval per shard — the paper's long-running read, end to end. On a
	// structure without ordered iteration the engine answers
	// StatusUnsupported.
	OpRange
)

func (o Op) String() string {
	switch o {
	case OpPing:
		return "PING"
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDel:
		return "DEL"
	case OpRange:
		return "RANGE"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// valid reports whether o is a known operation code.
func (o Op) valid() bool { return o >= OpPing && o <= OpRange }

// Status is a wire response code.
type Status uint8

const (
	// StatusOK: the operation succeeded (Get hit, Put inserted, Del removed,
	// Range scanned — possibly to an empty result).
	StatusOK Status = iota
	// StatusNotFound: Get or Del on an absent key.
	StatusNotFound
	// StatusExists: Put on a present key (nothing changed).
	StatusExists
	// StatusBusy: the shard queue was full; retry later.
	StatusBusy
	// StatusShutdown: the server is draining and accepts no new work.
	StatusShutdown
	// StatusBadRequest: the request frame was malformed.
	StatusBadRequest
	// StatusInternal: the worker executing the request died (panic); the
	// operation's effect is unknown. The shard itself keeps serving — a
	// replacement worker takes over the tid's duties.
	StatusInternal
	// StatusUnsupported: the operation is well-formed but the serving
	// structure cannot execute it (OpRange on a structure without ordered
	// iteration). A typed answer, not a protocol error: the connection
	// stays up and the client sees a Response, not a torn stream.
	StatusUnsupported
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusExists:
		return "EXISTS"
	case StatusBusy:
		return "BUSY"
	case StatusShutdown:
		return "SHUTDOWN"
	case StatusBadRequest:
		return "BAD_REQUEST"
	case StatusInternal:
		return "INTERNAL"
	case StatusUnsupported:
		return "UNSUPPORTED"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Request is one typed operation, the unit of the client and engine APIs.
// Fields beyond Op/Key are op-specific and ignored elsewhere: Val is Put's
// value (and Ping's echo payload), KeyHi and Limit shape a Range, TTL arms
// Put's expiry. The zero value of every optional field means "absent".
type Request struct {
	// Op selects the operation.
	Op Op
	// Key is the operation's key; for Range, the inclusive lower bound.
	Key uint64
	// KeyHi is Range's inclusive upper bound (ignored by other ops).
	KeyHi uint64
	// Val is Put's value and Ping's echo payload.
	Val uint64
	// TTL, when positive on a Put, schedules the key's expiry: once it
	// lapses the engine removes the key through the normal scheme retire
	// path, exactly as a user delete would. Wire granularity is 1ms;
	// sub-millisecond TTLs round up. Zero means no expiry.
	TTL time.Duration
	// Limit caps Range's result count; 0 selects the engine's default
	// (EngineConfig.MaxRangeResults).
	Limit uint32
	// TraceID is a causal trace ID (0 = untraced): the worker executing a
	// traced request records an op span under it, joining the request to
	// its shard's reclamation timeline on /debug/trace. Client.DoContext
	// fills it from the context (WithTraceID) when unset.
	TraceID uint64
}

// Pair is one key→value result of a Range scan.
type Pair struct {
	Key, Val uint64
}

// Response is one operation's result. Pairs is set only for Range (ascending
// key order, length ≤ the effective limit); every other op answers through
// Status and Val.
type Response struct {
	Status Status
	Val    uint64
	Pairs  []Pair
}

// Frame layout. Every frame is a 4-byte big-endian payload length followed
// by the payload:
//
//	request v2:  id u32 | op u8 | key u64 | keyHi u64 | val u64 | ttlMs u32 | limit u32 | trace u64  (45 bytes)
//	request v1:  id u32 | op u8 | key u64 | val u64 | trace u64                                      (29 bytes, legacy)
//	response v2: id u32 | st u8 | val u64 | npairs u32 | npairs × (key u64 | val u64)                (17 + 16·npairs bytes)
//	response v1: id u32 | st u8 | val u64                                                           (13 bytes, legacy)
//
// id is a connection-scoped request identifier chosen by the client; the
// server echoes it, so responses may complete out of order and clients can
// pipeline arbitrarily deep. The explicit length prefix (rather than bare
// fixed frames) is what makes the protocol evolvable: the server tells v1
// and v2 requests apart by announced length alone and fills the missing v2
// fields with zero, so old clients keep working against a v2 server. The
// compatibility promise covers both directions — a pre-range client also
// expects exactly 13-byte responses, so the server keys each response's
// encoding off its request's announced length and answers v1-framed
// requests with the legacy layout (v1 ops can never carry pairs; a
// v1-framed RANGE is rejected as a bad request, exactly as the v1 server
// rejected op 5). v2 responses became variable-length the moment Range
// needed to carry pairs, with no version byte anywhere. Both ends still
// reject a desynchronized or hostile stream immediately via the
// per-direction length bounds.
const (
	reqPayloadV1Len  = 29
	reqPayloadV2Len  = 45
	respHeaderLen    = 17
	respPayloadV1Len = 13
	pairLen          = 16
	// maxReqFrame bounds announced request payload lengths. Requests are
	// small and fixed-size; anything larger is a desynchronized stream.
	maxReqFrame = reqPayloadV2Len
	// maxRespFrame bounds announced response payload lengths: the header
	// plus a full default-limit range result, with headroom. Engines cap
	// range results well below this (MaxRangeResults ≤ 64k pairs = 1MiB).
	maxRespFrame = 2 << 20
	// maxRangeLimit is the protocol-level ceiling on one Range's result
	// count; it keeps every well-formed response under maxRespFrame.
	maxRangeLimit = 1 << 16
)

// ttlToWire converts a TTL to its millisecond wire form: 0 stays 0 (no
// expiry), positive values round up so a 200µs TTL does not silently become
// immortal, and overflow clamps to the ~49-day wire maximum.
func ttlToWire(ttl time.Duration) uint32 {
	if ttl <= 0 {
		return 0
	}
	if ttl >= time.Duration(^uint32(0))*time.Millisecond {
		return ^uint32(0)
	}
	return uint32((ttl + time.Millisecond - 1) / time.Millisecond)
}

// appendRequest appends one encoded v2 request frame to b.
func appendRequest(b []byte, id uint32, r Request) []byte {
	b = binary.BigEndian.AppendUint32(b, reqPayloadV2Len)
	b = binary.BigEndian.AppendUint32(b, id)
	b = append(b, byte(r.Op))
	b = binary.BigEndian.AppendUint64(b, r.Key)
	b = binary.BigEndian.AppendUint64(b, r.KeyHi)
	b = binary.BigEndian.AppendUint64(b, r.Val)
	b = binary.BigEndian.AppendUint32(b, ttlToWire(r.TTL))
	b = binary.BigEndian.AppendUint32(b, r.Limit)
	return binary.BigEndian.AppendUint64(b, r.TraceID)
}

// appendRequestV1 appends one encoded legacy (29-byte) request frame to b.
// Only tests use it — it pins the compatibility promise that a v2 server
// keeps accepting pre-range clients.
func appendRequestV1(b []byte, id uint32, op Op, key, val, trace uint64) []byte {
	b = binary.BigEndian.AppendUint32(b, reqPayloadV1Len)
	b = binary.BigEndian.AppendUint32(b, id)
	b = append(b, byte(op))
	b = binary.BigEndian.AppendUint64(b, key)
	b = binary.BigEndian.AppendUint64(b, val)
	return binary.BigEndian.AppendUint64(b, trace)
}

// appendResponseV1 appends one encoded legacy (13-byte) response frame to
// b. The server uses it to answer v1-framed requests — a pre-range client
// reads responses with a hard 13-byte bound, so it must never see the v2
// header. Pairs are dropped by construction: v1 ops cannot produce them.
func appendResponseV1(b []byte, id uint32, r Response) []byte {
	b = binary.BigEndian.AppendUint32(b, respPayloadV1Len)
	b = binary.BigEndian.AppendUint32(b, id)
	b = append(b, byte(r.Status))
	return binary.BigEndian.AppendUint64(b, r.Val)
}

// appendResponse appends one encoded response frame to b.
func appendResponse(b []byte, id uint32, r Response) []byte {
	n := respHeaderLen + pairLen*len(r.Pairs)
	b = binary.BigEndian.AppendUint32(b, uint32(n))
	b = binary.BigEndian.AppendUint32(b, id)
	b = append(b, byte(r.Status))
	b = binary.BigEndian.AppendUint64(b, r.Val)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Pairs)))
	for _, p := range r.Pairs {
		b = binary.BigEndian.AppendUint64(b, p.Key)
		b = binary.BigEndian.AppendUint64(b, p.Val)
	}
	return b
}

// readFrame reads one length-prefixed payload into buf (reused and grown
// across calls) and returns the payload slice. max bounds the announced
// length for this direction; direction-specific validity (request version
// lengths, pair-count consistency) is the parser's job.
func readFrame(r *bufio.Reader, max int, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > max {
		return nil, fmt.Errorf("server: frame length %d exceeds limit %d", n, max)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// parseRequest decodes a request payload, accepting both the legacy v1 and
// the current v2 layout by length; v1 requests get zero KeyHi/TTL/Limit.
// legacy reports which layout carried the request, because the answer must
// travel back in the same dialect: the server encodes a 13-byte v1
// response for a v1-framed request.
func parseRequest(p []byte) (id uint32, req Request, legacy bool, err error) {
	switch len(p) {
	case reqPayloadV1Len:
		legacy = true
		id = binary.BigEndian.Uint32(p[0:4])
		req.Op = Op(p[4])
		req.Key = binary.BigEndian.Uint64(p[5:13])
		req.Val = binary.BigEndian.Uint64(p[13:21])
		req.TraceID = binary.BigEndian.Uint64(p[21:29])
	case reqPayloadV2Len:
		id = binary.BigEndian.Uint32(p[0:4])
		req.Op = Op(p[4])
		req.Key = binary.BigEndian.Uint64(p[5:13])
		req.KeyHi = binary.BigEndian.Uint64(p[13:21])
		req.Val = binary.BigEndian.Uint64(p[21:29])
		req.TTL = time.Duration(binary.BigEndian.Uint32(p[29:33])) * time.Millisecond
		req.Limit = binary.BigEndian.Uint32(p[33:37])
		req.TraceID = binary.BigEndian.Uint64(p[37:45])
	default:
		err = fmt.Errorf("server: request length %d, want %d (v2) or %d (v1)", len(p), reqPayloadV2Len, reqPayloadV1Len)
	}
	return
}

// parseResponseV1 decodes a legacy 13-byte response payload. Only tests use
// it — it is the pre-range client's reader, pinning the response-direction
// half of the compatibility promise.
func parseResponseV1(p []byte) (id uint32, resp Response, err error) {
	if len(p) != respPayloadV1Len {
		return 0, Response{}, fmt.Errorf("server: v1 response length %d, want %d", len(p), respPayloadV1Len)
	}
	id = binary.BigEndian.Uint32(p[0:4])
	resp.Status = Status(p[4])
	resp.Val = binary.BigEndian.Uint64(p[5:13])
	return
}

// parseResponse decodes a response payload, validating that the announced
// pair count matches the payload length exactly.
func parseResponse(p []byte) (id uint32, resp Response, err error) {
	if len(p) < respHeaderLen {
		return 0, Response{}, fmt.Errorf("server: response length %d, want at least %d", len(p), respHeaderLen)
	}
	id = binary.BigEndian.Uint32(p[0:4])
	resp.Status = Status(p[4])
	resp.Val = binary.BigEndian.Uint64(p[5:13])
	n := int(binary.BigEndian.Uint32(p[13:17]))
	if len(p) != respHeaderLen+pairLen*n {
		return 0, Response{}, fmt.Errorf("server: response announces %d pairs but carries %d bytes", n, len(p)-respHeaderLen)
	}
	if n > 0 {
		resp.Pairs = make([]Pair, n)
		for i := range resp.Pairs {
			off := respHeaderLen + pairLen*i
			resp.Pairs[i].Key = binary.BigEndian.Uint64(p[off : off+8])
			resp.Pairs[i].Val = binary.BigEndian.Uint64(p[off+8 : off+16])
		}
	}
	return
}
