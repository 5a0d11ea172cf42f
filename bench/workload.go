package main

import (
	"time"

	"ibr/internal/ds"
	"ibr/internal/server"
)

// level is the layer a pass drives a workload's requests through: straight
// into one ds.Map, into server.Engine.SubmitRequest, or over the wire
// through server.Client → server.Server → Engine.
type level int

const (
	levelDS level = iota
	levelEngine
	levelWire
	numLevels
)

var levelNames = [numLevels]string{"ds", "engine", "wire"}

// role is what one caller (a ds tid, or one closed-loop engine/wire caller)
// issues: a point-op mix, or nothing but range scans.
type role int

const (
	roleMixed role = iota
	roleScanner
)

// workload is one traffic mix. Its requests are a pure function of the seed;
// the program under test only ever sees the generated requests.
type workload struct {
	name string
	why  string

	level     level  // the layer the end-to-end run drives
	structure string // ds registry name
	keys      uint64 // keys are drawn uniformly from [0, keys)

	getPct, putPct int           // point mix in percent; the rest are deletes
	ttl            time.Duration // TTL on every PUT (engine and wire levels only)
	rangeEvery     uint64        // 1 in rangeEvery mixed requests is a RANGE (0: none)
	span           uint64        // keys per RANGE

	callers func(nproc int) []role
	// stall adds one ds tid that holds a reservation for stallOn, then
	// releases it for stallOn, for the whole run (ds level only).
	stall bool
}

const (
	prefillShare = 0.5
	stallOn      = 10 * time.Millisecond
)

func mixed(n int) []role { return make([]role, n) }

var workloads = []*workload{
	{
		name:      "lib-write",
		why:       "hashmap x tagibr, nproc tids 50/50 insert/remove: every op allocates or retires, so mem+core+ds do all the work and the server none",
		level:     levelDS,
		structure: "hashmap",
		keys:      1 << 16,
		getPct:    0, putPct: 50,
		callers: func(nproc int) []role { return mixed(nproc) },
	},
	{
		name:      "lib-scan-stall",
		why:       "skiplist, 1 writer + 1 scanner of 4096-key ranges + a tid stalled 10 ms on/off: long and stalled reservations against the space bound",
		level:     levelDS,
		structure: "skiplist",
		keys:      1 << 18,
		getPct:    0, putPct: 50,
		span:  4096,
		stall: true,
		callers: func(nproc int) []role {
			return append(mixed(max(nproc-1, 1)), roleScanner)
		},
	},
	{
		name:      "serve-get-light",
		why:       "served hashmap 90/5/5 get/put/del, one closed-loop caller: nothing queues, so it prices the bare per-request path through client, socket, queue and worker",
		level:     levelWire,
		structure: "hashmap",
		keys:      1 << 16,
		getPct:    90, putPct: 5,
		// One caller, not one per core: with two, the cores flip between
		// staying warm and parking between requests, and p50 jumps between
		// the two regimes from run to run.
		callers: func(int) []role { return mixed(1) },
	},
	{
		name:      "serve-get-heavy",
		why:       "same mix, 16 callers per connection: both cores saturated, so batching, queueing and CPU freed anywhere show as throughput and tail",
		level:     levelWire,
		structure: "hashmap",
		keys:      1 << 16,
		getPct:    90, putPct: 5,
		callers: func(nproc int) []role { return mixed(16 * nproc) },
	},
	{
		name:      "serve-scan-ttl",
		why:       "served skiplist 50/25/25 with 500 ms TTLs and 1 in 16 requests a 1024-key RANGE: large frames, 8-shard fan-out, expiry-driven retires",
		level:     levelWire,
		structure: "skiplist",
		keys:      1 << 16,
		getPct:    50, putPct: 25,
		ttl:        500 * time.Millisecond,
		rangeEvery: 16,
		span:       1024,
		callers:    func(nproc int) []role { return mixed(4 * nproc) },
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// value is the only value the generator ever writes for key, so every read
// can be checked exactly.
func value(key uint64) uint64 { return key*2 + 1 }

// splitmix is a SplitMix64 generator: deterministic per seed and with every
// output bit mixed (keys are taken modulo the key space).
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// stream derives an independent generator for one purpose of one run.
func stream(seed int64, purpose, idx uint64) *splitmix {
	r := &splitmix{s: uint64(seed)}
	r.s = r.next() ^ purpose*0xD1B54A32D192ED03
	r.s = r.next() ^ idx*0x8CB92BA72F3D8DD7
	return r
}

const (
	streamPrefill = iota + 1
	streamCaller
)

// prefill returns about prefillShare of the key space, in random order:
// insertion order matters to the ordered structures' shape.
func (w *workload) prefill(seed int64) []ds.KV {
	r := stream(seed, streamPrefill, 0)
	pairs := make([]ds.KV, 0, int(float64(w.keys)*prefillShare)+1)
	for k := uint64(0); k < w.keys; k++ {
		if float64(r.next()>>11)/(1<<53) < prefillShare {
			pairs = append(pairs, ds.KV{Key: k, Val: value(k)})
		}
	}
	for i := len(pairs) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}
	return pairs
}

// gen is one caller's request stream.
type gen struct {
	w    *workload
	role role
	r    *splitmix
}

func (w *workload) gen(seed int64, caller int, ro role) *gen {
	return &gen{w: w, role: ro, r: stream(seed, streamCaller, uint64(caller))}
}

func (g *gen) next() server.Request {
	w := g.w
	if g.role == roleScanner || (w.rangeEvery > 0 && g.r.next()%w.rangeEvery == 0) {
		from := g.r.next() % (w.keys - w.span + 1)
		return server.Request{Op: server.OpRange, Key: from, KeyHi: from + w.span - 1, Limit: uint32(w.span)}
	}
	key := g.r.next() % w.keys
	switch p := int(g.r.next() % 100); {
	case p < w.getPct:
		return server.Request{Op: server.OpGet, Key: key}
	case p < w.getPct+w.putPct:
		return server.Request{Op: server.OpPut, Key: key, Val: value(key), TTL: w.ttl}
	default:
		return server.Request{Op: server.OpDel, Key: key}
	}
}
