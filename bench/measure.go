package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ibr/internal/obs"
	"ibr/internal/server"
)

// tally is one caller's private record of a pass. Conservation counters
// (putOK, delOK) cover the caller's whole life, warm-up included; the rest
// cover the measured window only.
type tally struct {
	putOK, delOK uint64

	attempted, failed, invalid uint64
	firstErr                   error
	ops                        uint64 // completed requests that count toward ops_per_s
	insAtt, insOK              uint64
	remAtt, remOK              uint64
	ranges, pairs              uint64

	lat    [server.OpRange + 1][][]uint32 // per-op latency samples in ns, by slice of the window
	submit []uint32                       // engine level: SubmitRequest call time, ns
	spans  []span
}

func (t *tally) record(op server.Op, slice int, ns ...uint32) {
	for len(t.lat[op]) <= slice {
		t.lat[op] = append(t.lat[op], nil)
	}
	t.lat[op][slice] = append(t.lat[op][slice], ns...)
}

// samples returns every latency sample of ops, by slice and all together.
func (t *tally) samples(ops ...server.Op) (bySlice [][]uint32, all []uint32) {
	for _, op := range ops {
		for s, xs := range t.lat[op] {
			for len(bySlice) <= s {
				bySlice = append(bySlice, nil)
			}
			bySlice[s] = append(bySlice[s], xs...)
			all = append(all, xs...)
		}
	}
	return bySlice, all
}

func nanos(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// quantile returns the nearest-rank q-quantile of samples (sorted in place).
func quantile(samples []uint32, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if !slices.IsSorted(samples) {
		slices.Sort(samples)
	}
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	return float64(samples[min(max(i, 0), len(samples)-1)])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the spread measure repeated runs are judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histDelta is after − before for a monotone histogram.
func histDelta(after, before obs.HistSnapshot) obs.HistSnapshot {
	for i := range after.Buckets {
		after.Buckets[i] -= before.Buckets[i]
	}
	after.Count -= before.Count
	after.Sum -= before.Sum
	return after
}

// span is one benchmark-side trace span. Spans of one request share id;
// start is relative to the run's start.
type span struct {
	name   string
	caller int
	id     uint64
	start  time.Duration
	dur    time.Duration
}

const (
	// spanEvery: one request in spanEvery per caller gets spans (and, on
	// the engine and wire levels, a wire trace ID the engine's own op spans
	// on /debug/trace join).
	spanEvery = 64
	// maxPassSpans bounds one pass's spans (split evenly over its callers),
	// keeping a traced run's memory and trace file to tens of megabytes.
	maxPassSpans = 40000
)

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes every pass's spans as Chrome trace-event JSON (loads in
// Perfetto and chrome://tracing): one process per pass, one thread per
// caller.
func writeTrace(path string, passes []*passResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var events []traceEvent
	for _, p := range passes {
		pid := int(p.level) + 1
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": levelNames[p.level] + " pass"}})
		for _, s := range p.spans {
			events = append(events, traceEvent{
				Name: s.name, Ph: "X", Pid: pid, Tid: s.caller,
				Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
				Args: map[string]any{"id": fmt.Sprintf("%#x", s.id)},
			})
		}
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
