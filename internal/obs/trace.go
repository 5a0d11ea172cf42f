package obs

// Perfetto / chrome://tracing export of the flight recorder: WriteTrace
// renders a snapshot of events into the Trace Event Format's JSON flavor
// (the `traceEvents` array both https://ui.perfetto.dev and chrome://tracing
// load directly).
//
// The trace uses two synthetic processes:
//
//   - pid 1 "rings": one thread track per recorder ring. Scans and traced
//     ops become complete ("X") slices, stalls/quarantines/bucket skips
//     become instants, and epoch advances / retire backlogs become counter
//     tracks — the shard-side timeline.
//   - pid 2 "blocks": one thread track per traced pool slot. The per-slot
//     lifecycle state machine stitches block_* events into a "live" slice
//     (alloc→retire) and a "retired" slice (retire→free), with publish and
//     kept instants on top — the block-side timeline. A lifecycle still
//     open when the snapshot ends (e.g. a block a stalled reservation
//     pins) renders as a slice extended to the last event timestamp with
//     args.truncated=true, so pinned memory is visible rather than absent.
//
// Slot reuse is handled by flushing the previous lifecycle whenever a new
// block_alloc arrives for a slot that already has one open; ring
// wraparound simply drops legs (a span missing its alloc still renders its
// retire→free slice).

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Synthetic process ids of the emitted trace.
const (
	tracePidRings  = 1
	tracePidBlocks = 2
)

// traceEvent is one entry of the traceEvents array.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds since process start
	Dur   *float64       `json:"dur,omitempty"` // microseconds, complete events only
	Pid   int            `json:"pid"`
	Tid   uint64         `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope
	Args  map[string]any `json:"args,omitempty"`
}

// blockLife is the per-slot lifecycle state machine.
type blockLife struct {
	haveAlloc   bool
	allocTS     uint64
	birth       uint64
	havePublish bool
	haveRetire  bool
	retireTS    uint64
	retireEpoch uint64
}

// WriteTrace encodes events (sorted in place by timestamp) as a Perfetto /
// chrome://tracing JSON document.
func WriteTrace(w io.Writer, events []Event) error {
	sort.Slice(events, func(i, j int) bool { return events[i].TS < events[j].TS })

	var (
		out    []traceEvent
		lives  = map[uint64]*blockLife{}
		rings  = map[int]bool{}
		slots  = map[uint64]bool{}
		lastTS uint64
	)
	us := func(ts uint64) float64 { return float64(ts) / 1e3 }
	durp := func(a, b uint64) *float64 { // [a,b] as a duration pointer
		d := us(b) - us(a)
		return &d
	}
	slice := func(pid int, tid uint64, name string, from, to uint64, args map[string]any) {
		out = append(out, traceEvent{Name: name, Ph: "X", TS: us(from), Dur: durp(from, to), Pid: pid, Tid: tid, Args: args})
	}
	instant := func(pid int, tid uint64, name string, ts uint64, args map[string]any) {
		out = append(out, traceEvent{Name: name, Ph: "i", TS: us(ts), Pid: pid, Tid: tid, Scope: "t", Args: args})
	}
	counter := func(tid uint64, name string, ts uint64, v uint64) {
		out = append(out, traceEvent{Name: name, Ph: "C", TS: us(ts), Pid: tracePidRings, Tid: tid, Args: map[string]any{"value": v}})
	}
	// flushOpen renders whatever legs of a still-open lifecycle exist,
	// extended to endTS and marked truncated.
	flushOpen := func(slot uint64, l *blockLife, endTS uint64) {
		if l.haveAlloc {
			to := endTS
			args := map[string]any{"birth": l.birth, "truncated": true}
			if l.haveRetire {
				to = l.retireTS
				delete(args, "truncated")
			}
			slice(tracePidBlocks, slot, "live", l.allocTS, to, args)
		}
		if l.haveRetire {
			slice(tracePidBlocks, slot, "retired", l.retireTS, endTS,
				map[string]any{"retire_epoch": l.retireEpoch, "truncated": true})
		}
	}

	for i := range events {
		ev := &events[i]
		if ev.TS > lastTS {
			lastTS = ev.TS
		}
		switch ev.Kind {
		case KindBlockAlloc, KindBlockPublish, KindBlockRetire, KindBlockKept, KindBlockFree:
			slots[ev.Value] = true
		default:
			rings[ev.Ring] = true
		}
		switch ev.Kind {
		case KindBlockAlloc:
			if l := lives[ev.Value]; l != nil {
				// Slot reused: the previous lifecycle ended (its free was
				// lost to ring wraparound) — flush it before starting over.
				flushOpen(ev.Value, l, ev.TS)
			}
			lives[ev.Value] = &blockLife{haveAlloc: true, allocTS: ev.TS, birth: ev.Epoch}
		case KindBlockPublish:
			l := lives[ev.Value]
			if l == nil {
				l = &blockLife{}
				lives[ev.Value] = l
			}
			if !l.havePublish {
				l.havePublish = true
				instant(tracePidBlocks, ev.Value, "publish", ev.TS, nil)
			}
		case KindBlockRetire:
			l := lives[ev.Value]
			if l == nil {
				l = &blockLife{}
				lives[ev.Value] = l
			}
			if !l.haveRetire {
				l.haveRetire = true
				l.retireTS = ev.TS
				l.retireEpoch = ev.Epoch
			}
		case KindBlockKept:
			instant(tracePidBlocks, ev.Value, "kept", ev.TS,
				map[string]any{"witness_tid": int64(ev.Epoch)})
		case KindBlockFree:
			if l := lives[ev.Value]; l != nil {
				if l.haveAlloc && l.haveRetire {
					slice(tracePidBlocks, ev.Value, "live", l.allocTS, l.retireTS,
						map[string]any{"birth": l.birth})
				}
				if l.haveRetire {
					slice(tracePidBlocks, ev.Value, "retired", l.retireTS, ev.TS,
						map[string]any{"retire_epoch": l.retireEpoch, "age_epochs": ev.Epoch})
				} else {
					instant(tracePidBlocks, ev.Value, "freed", ev.TS,
						map[string]any{"age_epochs": ev.Epoch})
				}
				delete(lives, ev.Value)
			} else {
				instant(tracePidBlocks, ev.Value, "freed", ev.TS,
					map[string]any{"age_epochs": ev.Epoch})
			}
		case KindScanEnd:
			from := ev.TS
			if ev.Value < from {
				from = ev.TS - ev.Value
			}
			slice(tracePidRings, uint64(ev.Ring), "scan", from, ev.TS,
				map[string]any{"examined": ev.Epoch})
		case KindOp:
			from := ev.TS
			if ev.Epoch < from {
				from = ev.TS - ev.Epoch
			}
			slice(tracePidRings, uint64(ev.Ring), "op", from, ev.TS,
				map[string]any{"trace_id": fmt.Sprintf("0x%016x", ev.Value)})
		case KindFreeBatch:
			instant(tracePidRings, uint64(ev.Ring), "free_batch", ev.TS,
				map[string]any{"freed": ev.Value})
		case KindStall:
			instant(tracePidRings, uint64(ev.Ring), "stall", ev.TS,
				map[string]any{"tid": ev.Tid, "stale_lower": ev.Value})
		case KindQuarantine:
			instant(tracePidRings, uint64(ev.Ring), "quarantine", ev.TS,
				map[string]any{"tid": ev.Tid})
		case KindBucketSkip:
			instant(tracePidRings, uint64(ev.Ring), "bucket_skip", ev.TS,
				map[string]any{"birth_lo": ev.Epoch, "birth_hi": ev.Value})
		case KindEpochAdvance:
			counter(uint64(ev.Ring), "epoch", ev.TS, ev.Epoch)
		case KindRetire:
			counter(uint64(ev.Ring), "retired_backlog", ev.TS, ev.Value)
		}
	}
	for slot, l := range lives {
		flushOpen(slot, l, lastTS)
	}

	// Track naming metadata: one per process, one per used track.
	meta := func(pid int, tid uint64, key, name string) {
		out = append(out, traceEvent{Name: key, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	meta(tracePidRings, 0, "process_name", "rings")
	meta(tracePidBlocks, 0, "process_name", "blocks")
	for r := range rings {
		meta(tracePidRings, uint64(r), "thread_name", fmt.Sprintf("ring %d", r))
	}
	for s := range slots {
		meta(tracePidBlocks, s, "thread_name", fmt.Sprintf("slot %d", s))
	}

	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{out, "ns"}
	return json.NewEncoder(w).Encode(&doc)
}

// WriteTraceJSON snapshots the recorder and writes the snapshot in the
// Perfetto / chrome://tracing JSON form.
func (r *Recorder) WriteTraceJSON(w io.Writer) error {
	return WriteTrace(w, r.Snapshot())
}
