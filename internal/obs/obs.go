// Package obs is the observability layer of the running system: a
// per-thread lock-free flight recorder of SMR lifecycle events, a family of
// concurrent log2-bucketed histograms (server latency per op type, scan
// duration, free-batch size, and the paper-critical retire→free age
// distribution), a hand-rolled Prometheus text-format encoder, a Perfetto
// trace encoder for the recorder, and a stall watchdog that turns the
// paper's stalled-thread experiment (§4.3.1, Fig. 9) into a live alert.
//
// The package depends only on the standard library and knows nothing about
// the reclamation schemes: internal/core calls into a *SchemeObs through
// nil-safe methods (a library scheme built without an observer holds a nil
// pointer and each hook is a single predictable branch), and
// internal/server assembles recorders, histograms and the watchdog into an
// engine-wide view that cmd/ibrd exposes on /metrics and /debug/trace.
package obs

import "time"

// start anchors every timestamp the package records. Using one process-wide
// monotonic base keeps events from different recorders comparable and makes
// a recorded timestamp a plain uint64 nanosecond offset.
var start = time.Now()

// nowNanos returns monotonic nanoseconds since process start.
func nowNanos() uint64 { return uint64(time.Since(start)) }

// Now returns the package's monotonic timestamp — nanosecond offsets on the
// same axis as every recorded event, so callers can time spans (op latency)
// in recorder units.
func Now() uint64 { return nowNanos() }

// NoEpoch mirrors epoch.None ("no epoch reserved", the paper's MAX) without
// importing the epoch package; the watchdog treats it as an idle slot.
const NoEpoch = ^uint64(0)

// Kind classifies a flight-recorder event.
type Kind uint8

const (
	// KindRetire: a block was retired (sampled; Epoch = retire epoch,
	// Value = retire-list length after the append).
	KindRetire Kind = 1 + iota
	// KindScanEnd: the scan finished (Value = duration in nanoseconds,
	// Epoch = blocks examined).
	KindScanEnd
	// KindFreeBatch: the scan's frees were batch-returned to the allocator
	// (Value = batch size).
	KindFreeBatch
	// KindEpochAdvance: the global epoch advanced (Epoch = new epoch).
	KindEpochAdvance
	// KindStall: the watchdog flagged a reservation held past the
	// threshold (Tid = the stalled slot, Epoch = current epoch, Value =
	// the reservation's stale lower endpoint).
	KindStall
	// KindQuarantine: the serving engine quarantined a stalled tid —
	// cleared its reservation on its behalf (Tid = the quarantined tid,
	// Epoch = current epoch). Written by the remediator into the
	// quarantined tid's ring while that tid's holder is parked.
	KindQuarantine
	// KindBlockAlloc: a traced block's lifecycle span began (Value = the
	// block's pool slot index, Epoch = birth epoch, 0 for the epoch-free
	// schemes). Block spans are selected deterministically by slot index
	// (see Options.TraceEvery), so a given block is either fully traced or
	// fully absent.
	KindBlockAlloc
	// KindBlockPublish: a traced block's handle was stored into a shared
	// pointer — the block became reachable (Value = slot index).
	KindBlockPublish
	// KindBlockRetire: a traced block was retired (Value = slot index,
	// Epoch = retire epoch).
	KindBlockRetire
	// KindBlockKept: a scan examined a traced block individually and kept
	// it because a reservation interval pinned it (Value = slot index,
	// Epoch = the witness reservation's tid).
	KindBlockKept
	// KindBlockFree: a traced block was reclaimed (Value = slot index,
	// Epoch = its retire→free age in epochs).
	KindBlockFree
	// KindBucketSkip: a scan kept a whole retire bucket on one corner test
	// (Epoch = the bucket's lowest birth epoch, Value = its highest).
	// Traced blocks retired into the bucket stay pinned without per-block
	// events — the skip marker is their "examined wholesale" record, kept
	// O(1) per bucket so stalls never degrade scans back to backlog walks.
	KindBucketSkip
	// KindOp: a traced request executed on a serving worker (Value = the
	// wire trace ID, Epoch = execution duration in nanoseconds; TS is the
	// end time). Joins a client-chosen trace ID to the shard timeline.
	KindOp
)

// Event is one decoded flight-recorder entry. The Epoch and Value fields
// are kind-specific (see the Kind constants).
type Event struct {
	Ring  int
	Pos   uint64 // position in the ring's append order
	TS    uint64 // monotonic ns since process start
	Kind  Kind
	Tid   int
	Epoch uint64
	Value uint64
}

// Options tunes the observability layer; the zero value of every field
// selects a sensible default.
type Options struct {
	// RingSize is the per-thread flight-recorder capacity in events
	// (default 4096, rounded up to a power of two).
	RingSize int
	// SampleEvery thins retire events to one ring write every SampleEvery
	// retirements per thread (default 64, rounded up to a power of two; 1
	// records every retire). Scans, free batches, epoch advances and stalls
	// are always recorded — they are orders of magnitude rarer than
	// operations.
	SampleEvery int
	// TraceEvery selects which block-lifecycle spans the flight recorder
	// traces: a block whose pool slot index is ≡ 0 (mod TraceEvery) records
	// alloc/publish/retire/kept/free span events (default 64, rounded up to
	// a power of two; 1 traces every block). Selecting by slot index is
	// deterministic — the same block is traced across every reuse of its
	// slot, never half a lifecycle.
	TraceEvery int
	// StallThreshold is how long a reservation may stay unchanged before
	// the watchdog raises a stall alert (default 1s).
	StallThreshold time.Duration
}

// WithDefaults returns o with zero fields replaced by defaults.
func (o Options) WithDefaults() Options {
	if o.RingSize <= 0 {
		o.RingSize = 4096
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 64
	}
	if o.TraceEvery <= 0 {
		o.TraceEvery = 64
	}
	if o.StallThreshold <= 0 {
		o.StallThreshold = time.Second
	}
	return o
}
