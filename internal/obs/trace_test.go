package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// traceDoc mirrors the emitted Perfetto JSON for decoding in tests.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestTraceSamplingDeterministic checks the slot-index mask: a slot is
// always traced or never, with TraceEvery rounded up to a power of two.
func TestTraceSamplingDeterministic(t *testing.T) {
	rec := NewRecorder(1, 64)
	o := NewSchemeObs(SchemeObsConfig{Threads: 1, Recorder: rec, TraceEvery: 48}) // rounds to 64

	o.BlockAlloc(0, 3, 1)
	o.BlockAlloc(0, 48, 1)
	o.BlockAlloc(0, 65, 1)
	o.BlockRetire(0, 3, 5)
	o.BlockFree(0, 3, 1)
	if n := len(rec.Snapshot()); n != 0 {
		t.Fatalf("sampled-out slots recorded %d events, want 0", n)
	}

	o.BlockAlloc(0, 0, 1)
	o.BlockAlloc(0, 64, 2)
	o.BlockRetire(0, 128, 5)
	if n := len(rec.Snapshot()); n != 3 {
		t.Fatalf("slot ≡ 0 (mod 64) events recorded = %d, want 3", n)
	}
}

// TestWriteTraceGolden drives one full lifecycle, one sampled-out slot, and
// one pinned (never-freed) slot through a SchemeObs and checks the encoded
// Perfetto document: the complete span renders live+retired without a
// truncated mark, the pinned one is extended and marked truncated, and the
// sampled-out slot is entirely absent.
func TestWriteTraceGolden(t *testing.T) {
	rec := NewRecorder(1, 64)
	o := NewSchemeObs(SchemeObsConfig{Threads: 1, Recorder: rec, TraceEvery: 4})

	// Slot 0: complete alloc→publish→retire→kept→freed lifecycle.
	o.BlockAlloc(0, 0, 5)
	o.BlockPublish(0, 0)
	o.BlockRetire(0, 0, 9)
	o.BlockKept(0, 0, 2)
	o.BlockFree(0, 0, 3)
	// Slot 3: not selected by the mask — must not appear at all.
	o.BlockAlloc(0, 3, 5)
	o.BlockRetire(0, 3, 9)
	o.BlockFree(0, 3, 1)
	// Slot 4: retired but never freed (pinned at snapshot time).
	o.BlockAlloc(0, 4, 6)
	o.BlockRetire(0, 4, 9)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	var live0, retired0, kept0, live4, retired4 int
	for _, ev := range doc.TraceEvents {
		if ev.Pid != 2 {
			continue
		}
		if ev.Tid == 3 {
			t.Fatalf("sampled-out slot 3 leaked into the trace: %+v", ev)
		}
		trunc := ev.Args["truncated"] == true
		switch {
		case ev.Tid == 0 && ev.Name == "live" && ev.Ph == "X":
			live0++
			if trunc {
				t.Errorf("complete live span marked truncated: %+v", ev)
			}
		case ev.Tid == 0 && ev.Name == "retired" && ev.Ph == "X":
			retired0++
			if trunc {
				t.Errorf("complete retired span marked truncated: %+v", ev)
			}
			if ev.Args["age_epochs"] != float64(3) {
				t.Errorf("retired span age_epochs = %v, want 3", ev.Args["age_epochs"])
			}
		case ev.Tid == 0 && ev.Name == "kept":
			kept0++
			if ev.Args["witness_tid"] != float64(2) {
				t.Errorf("kept witness_tid = %v, want 2", ev.Args["witness_tid"])
			}
		case ev.Tid == 4 && ev.Name == "live" && ev.Ph == "X":
			live4++
			if trunc {
				t.Errorf("live leg with a seen retire marked truncated: %+v", ev)
			}
		case ev.Tid == 4 && ev.Name == "retired" && ev.Ph == "X":
			retired4++
			if !trunc {
				t.Errorf("pinned (never freed) retired span not marked truncated: %+v", ev)
			}
		}
	}
	if live0 != 1 || retired0 != 1 || kept0 != 1 {
		t.Errorf("slot 0 spans: live=%d retired=%d kept=%d, want 1 each", live0, retired0, kept0)
	}
	if live4 != 1 || retired4 != 1 {
		t.Errorf("slot 4 spans: live=%d retired=%d, want 1 each", live4, retired4)
	}
}

// TestWriteTraceRendersEveryKind records one event of each kind and requires
// the trace to draw something for it beyond track-name metadata, so a kind
// that is recorded but never rendered cannot come back.
func TestWriteTraceRendersEveryKind(t *testing.T) {
	for k := Kind(1); k <= KindOp; k++ {
		rec := NewRecorder(1, 8)
		rec.Record(0, k, 0, 1, 1)
		var buf bytes.Buffer
		if err := WriteTrace(&buf, rec.Snapshot()); err != nil {
			t.Fatal(err)
		}
		var doc traceDoc
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("kind %d: trace is not valid JSON: %v", k, err)
		}
		drawn := 0
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "M" {
				drawn++
			}
		}
		if drawn == 0 {
			t.Errorf("kind %d is recorded but renders no trace event", k)
		}
	}
}

// TestWriteTraceWraparound laps a small ring mid-span so the alloc leg is
// lost, and checks the encoder still renders the surviving retire→free leg
// instead of dropping or corrupting the span.
func TestWriteTraceWraparound(t *testing.T) {
	rec := NewRecorder(1, 8)
	o := NewSchemeObs(SchemeObsConfig{Threads: 1, Recorder: rec, TraceEvery: 1})

	o.BlockAlloc(0, 7, 1)
	for i := 0; i < 8; i++ { // overwrite the alloc
		o.EpochAdvance(0, uint64(i))
	}
	o.BlockRetire(0, 7, 4)
	o.BlockFree(0, 7, 2)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var live, retired int
	for _, ev := range doc.TraceEvents {
		if ev.Pid != 2 || ev.Tid != 7 {
			continue
		}
		switch ev.Name {
		case "live":
			live++
		case "retired":
			retired++
			if ev.Args["truncated"] == true {
				t.Errorf("retired leg with a seen free marked truncated: %+v", ev)
			}
		}
	}
	if live != 0 {
		t.Errorf("live slices = %d, want 0 (alloc leg lost to wraparound)", live)
	}
	if retired != 1 {
		t.Errorf("retired slices = %d, want 1", retired)
	}
}

// TestPinBlame checks the blame rollup: scanners own rows, sums are read
// per witness, ages appear while a witness stays blamed and clear when its
// last scanner retracts.
func TestPinBlame(t *testing.T) {
	o := NewSchemeObs(SchemeObsConfig{Threads: 4})

	o.PinBlame(0, []uint64{0, 10, 0, 2})
	o.PinBlame(1, []uint64{0, 5, 0, 0})
	top := o.PinnedBlame()
	if len(top) != 2 || top[0].Tid != 1 || top[0].Blocks != 15 || top[1].Tid != 3 || top[1].Blocks != 2 {
		t.Fatalf("PinnedBlame = %+v, want tid1=15 then tid3=2", top)
	}
	time.Sleep(2 * time.Millisecond)
	if top = o.PinnedBlame(); top[0].Age <= 0 {
		t.Errorf("blamed tid has no age: %+v", top[0])
	}

	// Retract: both scanners now blame nobody; the table empties and the
	// pin-since stamps reset.
	o.PinBlame(0, nil)
	o.PinBlame(1, nil)
	if top = o.PinnedBlame(); len(top) != 0 {
		t.Fatalf("PinnedBlame after retraction = %+v, want empty", top)
	}
	o.PinBlame(0, []uint64{0, 1, 0, 0})
	if top = o.PinnedBlame(); len(top) != 1 || top[0].Age > time.Second {
		t.Errorf("re-blamed tid kept a stale age: %+v", top)
	}
}
