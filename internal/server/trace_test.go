package server

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ibr/internal/obs"
)

// TestTraceHandlerConcurrentScrape hammers /debug/trace while the engine
// serves traced load. Run with -race: the Perfetto encoding walks the same
// rings the workers are writing, so the scrape must stay tear-free and
// non-blocking. The final scrape must be valid JSON containing both an op
// span under a submitted trace ID and completed block lifecycle spans.
func TestTraceHandlerConcurrentScrape(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Shards: 2, WorkersPerShard: 2, QueueDepth: 1024,
		EpochFreq: 8, EmptyFreq: 8,
		Obs: &obs.Options{SampleEvery: 1, TraceEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	handler := TraceHandler(eng)

	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
			if rec.Code != 200 {
				t.Errorf("trace handler status = %d", rec.Code)
				return
			}
			var doc map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Errorf("mid-load trace is not valid JSON: %v", err)
				return
			}
		}
	}()

	const producers = 4
	var loadWG sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		loadWG.Add(1)
		go func(pr int) {
			defer loadWG.Done()
			n := 4000
			if testing.Short() {
				n = 1000
			}
			ch := make(chan Response, 1)
			done := func(r Response) { ch <- r }
			for i := 0; i < n; i++ {
				key := uint64(pr*1000 + i%512)
				trace := uint64(pr+1)<<32 | uint64(i+1)
				for _, op := range []Op{OpPut, OpDel} {
					if err := eng.SubmitRequest(Request{Op: op, Key: key, Val: key, TraceID: trace}, done); err == nil {
						<-ch
					}
				}
			}
		}(pr)
	}
	loadWG.Wait()
	close(stop)
	scrapeWG.Wait()

	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("final trace is not valid JSON: %v", err)
	}
	var ops, retired int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Name == "op" && ev.Ph == "X":
			ops++
			if ev.Args["trace_id"] == "0x0000000000000000" {
				t.Error("op span recorded for an untraced request")
			}
		case ev.Name == "retired" && ev.Ph == "X" && ev.Args["truncated"] != true:
			retired++ // a complete retire→free span
		}
	}
	if ops == 0 {
		t.Error("no op spans despite traced submits")
	}
	if retired == 0 {
		t.Error("no complete retire→free block spans despite a delete-heavy run")
	}

	eng.Close()
}

// TestTraceIDWireRoundTrip drives a trace ID through the whole stack:
// client context → request frame → server parse → execution on the
// connection reader under a borrowed tid → flight recorder op event.
func TestTraceIDWireRoundTrip(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Shards: 1, WorkersPerShard: 1,
		Obs: &obs.Options{SampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	const traceID = 0xABCD_0001_0002_0003
	ctx, cancel := context.WithTimeout(WithTraceID(context.Background(), traceID), 5*time.Second)
	defer cancel()
	if r, err := cl.DoContext(ctx, Request{Op: OpPut, Key: 7, Val: 11}); err != nil || r.Status != StatusOK {
		t.Fatalf("traced PUT: %v / %v", r.Status, err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		found := false
		for _, ev := range eng.Obs().Recorder().Snapshot() {
			if ev.Kind == obs.KindOp && ev.Value == traceID {
				found = true
				if ev.Epoch == 0 {
					t.Error("op event carries no duration")
				}
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("trace ID never reached the flight recorder")
		}
		time.Sleep(time.Millisecond)
	}
	cl.Close()
	srv.Shutdown()
}
