package main

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ibr/internal/harness"
)

func readRecords(t *testing.T, path string) []harness.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := harness.ReadRecords(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return recs
}

// TestCommittedFigures keeps the committed data and charts from drifting
// apart: every experiment's data/<id>.jsonl holds one record per cell, in
// cell order, and redraws data/<id>-{mops,space}.svg byte for byte.
func TestCommittedFigures(t *testing.T) {
	for _, e := range harness.Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			recs := readRecords(t, filepath.Join("../../data", e.ID+".jsonl"))
			cells := e.Cells(0, nil)
			if len(recs) != len(cells) {
				t.Fatalf("%d records, want one per cell: %d", len(recs), len(cells))
			}
			for i, c := range cells {
				r := recs[i]
				got := fmt.Sprint(r.Experiment, r.Structure, r.Mode, r.Scheme, r.Threads, r.Stalled, r.EmptyFreq)
				want := fmt.Sprint(e.ID, c.Structure, c.Workload, c.Scheme, c.Threads, c.Stalled, c.EmptyFreq)
				if got != want {
					t.Fatalf("record %d is cell %q, want %q", i, got, want)
				}
			}
			for _, m := range metrics {
				path := filepath.Join("../../data", e.ID+"-"+m.name+".svg")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if buildFigure(e, m, recs).SVG() != string(want) {
					t.Errorf("%s is not the chart its records draw", path)
				}
			}
		})
	}
}

// TestRunExperiment sweeps a two-cell experiment end to end: records with
// the host stamped on them, two well-formed SVGs and both tables.
func TestRunExperiment(t *testing.T) {
	dir := t.TempDir()
	e := harness.Experiment{
		ID: "tiny", Structure: "hashmap", Workload: harness.WriteDominated,
		Schemes: []string{"ebr", "tagibr"}, Threads: []int{2}, KeyRange: 1024,
	}
	var tables bytes.Buffer
	if err := runExperiment(e, 20*time.Millisecond, nil, dir, &tables); err != nil {
		t.Fatal(err)
	}
	recs := readRecords(t, filepath.Join(dir, "tiny.jsonl"))
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Experiment != "tiny" || r.Ops == 0 || r.Nproc <= 0 || r.GOMAXPROCS <= 0 {
			t.Errorf("incomplete record %+v", r)
		}
	}
	for _, m := range metrics {
		svg, err := os.ReadFile(filepath.Join(dir, "tiny-"+m.name+".svg"))
		if err != nil {
			t.Fatal(err)
		}
		for dec := xml.NewDecoder(bytes.NewReader(svg)); ; {
			if _, err := dec.Token(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("tiny-%s.svg: %v", m.name, err)
			}
		}
		if title := "# tiny — " + m.title + " (" + m.yLabel + ")\n"; !strings.Contains(tables.String(), title) {
			t.Errorf("tables lack %q:\n%s", title, tables.String())
		}
	}
}

func TestBuildFigure(t *testing.T) {
	recs := []harness.Record{
		{Scheme: "ebr", Threads: 1, Mops: 7.4, AvgRetired: 104.5},
		{Scheme: "ebr", Threads: 4, Mops: 2.7, AvgRetired: 25502.2},
		{Scheme: "tagibr", Threads: 1, Mops: 6.7, AvgRetired: 73.4},
	}
	e := harness.Experiment{ID: "fig8b"}
	c := buildFigure(e, metrics[0], recs)
	if len(c.Series) != 2 || c.Series[0].Name != "ebr" || c.Series[1].Name != "tagibr" {
		t.Fatalf("series %+v, want ebr then tagibr", c.Series)
	}
	if c.LogY || c.Title != "fig8b — throughput" || c.XLabel != "threads" {
		t.Fatalf("throughput chart %+v", c)
	}
	cs := buildFigure(e, metrics[1], recs)
	if !cs.LogY {
		t.Fatal("space chart must be log")
	}
	if cs.Series[0].Y[1] != 25502.2 {
		t.Fatalf("space series = %+v", cs.Series[0])
	}
}

func TestBuildFigureKsweepAxis(t *testing.T) {
	recs := []harness.Record{
		{Scheme: "ebr", Threads: 4, Mops: 1, AvgRetired: 10, EmptyFreq: 30},
		{Scheme: "ebr", Threads: 4, Mops: 2, AvgRetired: 20, EmptyFreq: 1},
	}
	c := buildFigure(harness.Experiment{ID: "ksweep", EmptyFreqs: []int{1, 30}}, metrics[0], recs)
	if c.XLabel != "empty frequency k" {
		t.Fatalf("xlabel = %q", c.XLabel)
	}
	// Sorted by emptyfreq: 1 before 30.
	if c.Series[0].X[0] != 1 || c.Series[0].X[1] != 30 || c.Series[0].Y[0] != 2 {
		t.Fatalf("ksweep series = %+v", c.Series[0])
	}
}
