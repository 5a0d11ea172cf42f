package main

import (
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"ibr/internal/server"
)

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared is the part of BENCHMARK.json the benchmark must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// checkEmitted asserts the report carries exactly the declared metrics, each
// with its declared unit, and passed validation.
func checkEmitted(t *testing.T, w string, r *report, want map[string]string) {
	t.Helper()
	for _, err := range r.errs {
		t.Errorf("%s: validation: %v", w, err)
	}
	if r.attempted == 0 || r.failed != 0 {
		t.Errorf("%s: attempted %d, failed %d", w, r.attempted, r.failed)
	}
	got := r.result().Metrics
	for name, unit := range want {
		if m, ok := got[name]; !ok {
			t.Errorf("%s: declared metric %s not emitted", w, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s has unit %q, declared %q", w, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s emitted but not declared", w, name)
		}
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload briefly, untraced and
// traced, and checks both metric sets against BENCHMARK.json.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		layer[m.Name] = m.Unit
	}
	nproc := runtime.NumCPU()
	for _, dw := range d.Workloads {
		w := findWorkload(dw.Name)
		if w == nil {
			t.Errorf("declared workload %s does not exist", dw.Name)
			continue
		}
		if dw.Why != w.why {
			t.Errorf("%s: BENCHMARK.json why %q differs from the code's %q", w.name, dw.Why, w.why)
		}
		// A smaller key space keeps prefill and the quiescent checks fast
		// (under -race too); every code path is the same.
		small := *w
		small.keys /= 16
		w = &small
		p, err := runPass(passConfig{w: w, level: w.level, seed: 7, nproc: nproc,
			warmup: 50 * time.Millisecond, measure: 250 * time.Millisecond, setups: 2, origin: time.Now()})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		r := e2eReport(p)
		checkEmitted(t, w.name, r, e2e)
		for _, m := range r.metrics {
			if m.value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.name, m.value)
			}
		}

		passes, err := tracedRun(w, 7, nproc, 50*time.Millisecond, 200*time.Millisecond)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		lr := layerReport(w, passes)
		checkEmitted(t, w.name+" traced", lr, layer)
		if lr.spans == 0 {
			t.Errorf("%s: traced run recorded no spans", w.name)
		}
	}
}

func TestTraceFileIsValidJSON(t *testing.T) {
	w := findWorkload("serve-get-light")
	passes, err := tracedRun(w, 3, runtime.NumCPU(), 20*time.Millisecond, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/trace.json"
	if err := writeTrace(path, passes); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
	}
	for _, n := range []string{"op", "ds.Get", "engine.SubmitRequest", "engine.complete", "client.DoContext"} {
		if !names[n] {
			t.Errorf("trace has no %s span", n)
		}
	}
}

func TestCheckRange(t *testing.T) {
	req := server.Request{Op: server.OpRange, Key: 10, KeyHi: 20, Limit: 3}
	pairs := func(keys ...uint64) []server.Pair {
		var out []server.Pair
		for _, k := range keys {
			out = append(out, server.Pair{Key: k, Val: value(k)})
		}
		return out
	}
	good := [][]server.Pair{nil, pairs(10), pairs(10, 15, 20)}
	for _, p := range good {
		if err := checkRange(req, p); err != nil {
			t.Errorf("valid %v rejected: %v", p, err)
		}
	}
	wrongVal := pairs(11, 12)
	wrongVal[1].Val++
	bad := map[string][]server.Pair{
		"non-ascending":   pairs(12, 11),
		"duplicate":       pairs(12, 12),
		"below the range": pairs(9, 12),
		"above the range": pairs(12, 21),
		"over the limit":  pairs(11, 12, 13, 14),
		"wrong value":     wrongVal,
	}
	for name, p := range bad {
		if err := checkRange(req, p); err == nil {
			t.Errorf("%s result %v accepted", name, p)
		}
		if oc, _ := check(req, server.Response{Status: server.StatusOK, Pairs: p}, nil); oc != outInvalid {
			t.Errorf("%s result classified %v, want invalid", name, oc)
		}
	}
}

func TestCheckClassifiesAnswers(t *testing.T) {
	get := server.Request{Op: server.OpGet, Key: 5}
	cases := []struct {
		name string
		req  server.Request
		resp server.Response
		err  error
		want outcome
	}{
		{"GET hit", get, server.Response{Status: server.StatusOK, Val: value(5)}, nil, outOK},
		{"GET wrong value", get, server.Response{Status: server.StatusOK, Val: 5}, nil, outInvalid},
		{"GET miss", get, server.Response{Status: server.StatusNotFound}, nil, outNoop},
		{"GET answered EXISTS", get, server.Response{Status: server.StatusExists}, nil, outInvalid},
		{"BAD_REQUEST", get, server.Response{Status: server.StatusBadRequest}, nil, outInvalid},
		{"UNSUPPORTED", server.Request{Op: server.OpRange, KeyHi: 9}, server.Response{Status: server.StatusUnsupported}, nil, outInvalid},
		{"BUSY", get, server.Response{Status: server.StatusBusy}, nil, outFailed},
		{"SHUTDOWN", get, server.Response{Status: server.StatusShutdown}, nil, outFailed},
		{"transport error", get, server.Response{}, errors.New("connection lost"), outFailed},
		{"PUT exists", server.Request{Op: server.OpPut, Key: 5}, server.Response{Status: server.StatusExists}, nil, outNoop},
		{"DEL removed", server.Request{Op: server.OpDel, Key: 5}, server.Response{Status: server.StatusOK}, nil, outOK},
	}
	for _, c := range cases {
		if got, _ := check(c.req, c.resp, c.err); got != c.want {
			t.Errorf("%s: classified %v, want %v", c.name, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := w.gen(11, 1, roleMixed), w.gen(11, 1, roleMixed)
		for i := 0; i < 1000; i++ {
			if ra, rb := a.next(), b.next(); ra != rb {
				t.Fatalf("%s: request %d differs: %+v vs %+v", w.name, i, ra, rb)
			}
		}
	}
}
