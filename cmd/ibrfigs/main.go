// Command ibrfigs regenerates the paper's evaluation figures (see DESIGN.md
// §4 for the experiment index): it sweeps every (scheme × thread-count)
// cell of one or all experiments, writes each cell's harness.Record to
// <dir>/<experiment>.jsonl, and draws each figure twice, as
// <experiment>-mops.svg and -space.svg (throughput for Fig. 8, the average
// retired-but-unreclaimed block count for Figs. 9/10) and as ASCII tables
// on stdout.
//
//	ibrfigs -fig all -i 0.25 -o data
//	ibrfigs -fig 8c -threads 1,4,16,64
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"ibr/internal/harness"
	"ibr/internal/plot"
)

func main() {
	var (
		fig      = flag.String("fig", "all", `experiment id ("8a".."8d", "10", "k", "stall", "stallcurve") or "all"`)
		interval = flag.Float64("i", 0.25, "seconds per benchmark cell")
		threads  = flag.String("threads", "", "comma-separated thread counts overriding the default sweep")
		outDir   = flag.String("o", "data", "directory for the records and charts")
		quiet    = flag.Bool("q", false, "suppress the ASCII tables")
	)
	flag.Parse()

	var override []int
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "ibrfigs: bad thread count %q\n", part)
				os.Exit(1)
			}
			override = append(override, n)
		}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ibrfigs:", err)
		os.Exit(1)
	}

	if *fig == "stallcurve" || *fig == "all" {
		if err := runStallCurve(time.Duration(*interval*float64(time.Second)), *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "ibrfigs:", err)
			os.Exit(1)
		}
		if *fig == "stallcurve" {
			return
		}
	}

	var exps []harness.Experiment
	if *fig == "all" {
		exps = harness.Experiments()
	} else {
		e, err := harness.ExperimentByID(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ibrfigs:", err)
			os.Exit(1)
		}
		exps = []harness.Experiment{e}
	}

	tables := io.Writer(os.Stdout)
	if *quiet {
		tables = io.Discard
	}
	for _, e := range exps {
		if err := runExperiment(e, time.Duration(*interval*float64(time.Second)), override, *outDir, tables); err != nil {
			fmt.Fprintln(os.Stderr, "ibrfigs:", err)
			os.Exit(1)
		}
	}
}

// runExperiment measures every cell of e into <outDir>/<id>.jsonl, then
// draws both of its charts as SVGs beside it and as tables to tables.
func runExperiment(e harness.Experiment, d time.Duration, override []int, outDir string, tables io.Writer) error {
	cells := e.Cells(d, override)
	fmt.Fprintf(os.Stderr, "== %s: %s (%d cells, %.2gs each)\n", e.ID, e.Title, len(cells), d.Seconds())

	path := filepath.Join(outDir, e.ID+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var recs []harness.Record
	for i, cfg := range cells {
		res, err := harness.Run(cfg)
		if err != nil {
			return fmt.Errorf("cell %d (%s/%s t=%d): %w", i, cfg.Structure, cfg.Scheme, cfg.Threads, err)
		}
		rec := harness.NewRecord(e.ID, res)
		if err := harness.WriteRecord(f, rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		fmt.Fprintf(os.Stderr, "  [%3d/%3d] %-12s t=%-3d k=%-3d %10.4f Mops  %10.1f retired\n",
			i+1, len(cells), cfg.Scheme, cfg.Threads, cfg.EmptyFreq, res.Mops, res.AvgRetired)
	}
	fmt.Fprintf(os.Stderr, "   wrote %s\n", path)

	for _, m := range metrics {
		c := buildFigure(e, m, recs)
		svg := filepath.Join(outDir, e.ID+"-"+m.name+".svg")
		if err := os.WriteFile(svg, []byte(c.SVG()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "   wrote %s\n", svg)
		if err := c.Table(tables); err != nil {
			return err
		}
		fmt.Fprintln(tables)
	}
	return f.Close()
}

// metric is one of the two quantities every experiment is drawn for.
type metric struct {
	name, title, yLabel string
	logY                bool // space series span orders of magnitude
	value               func(harness.Record) float64
}

var metrics = []metric{
	{"mops", "throughput", "M ops/s", false, func(r harness.Record) float64 { return r.Mops }},
	{"space", "retired-but-unreclaimed blocks", "avg retired blocks", true, func(r harness.Record) float64 { return r.AvgRetired }},
}

// buildFigure draws one metric of an experiment's records: one series per
// scheme, in the order the schemes first appear, over the thread count, or
// over the empty frequency k when the experiment sweeps it.
func buildFigure(e harness.Experiment, m metric, recs []harness.Record) *plot.Chart {
	c := &plot.Chart{Title: e.ID + " — " + m.title, XLabel: "threads", YLabel: m.yLabel, LogY: m.logY}
	x := func(r harness.Record) float64 { return float64(r.Threads) }
	if len(e.EmptyFreqs) > 0 {
		c.XLabel = "empty frequency k"
		x = func(r harness.Record) float64 { return float64(r.EmptyFreq) }
	}
	index := map[string]int{} // scheme → its series
	for _, r := range recs {
		if _, ok := index[r.Scheme]; !ok {
			index[r.Scheme] = len(c.Series)
			c.Series = append(c.Series, plot.Series{Name: r.Scheme})
		}
	}
	recs = slices.Clone(recs)
	slices.SortStableFunc(recs, func(a, b harness.Record) int { return cmp.Compare(x(a), x(b)) })
	for _, r := range recs {
		s := &c.Series[index[r.Scheme]]
		s.X = append(s.X, x(r))
		s.Y = append(s.Y, m.value(r))
	}
	return c
}

// runStallCurve records the space-vs-time series for each scheme with one
// mid-run staller and renders them as a single SVG — the paper's
// robustness claim as a picture: EBR's curve tracks the stall duration,
// the robust schemes plateau.
func runStallCurve(d time.Duration, outDir string) error {
	if d < 400*time.Millisecond {
		d = 400 * time.Millisecond
	}
	fmt.Fprintf(os.Stderr, "== stallcurve: retired blocks vs time, 1 staller (%.2gs per scheme)\n", d.Seconds())
	chart := &plot.Chart{
		Title:  "retired blocks over time with one stalled thread (stall = half the run)",
		XLabel: "ms",
		YLabel: "retired-but-unreclaimed blocks",
	}
	for _, scheme := range []string{"ebr", "hp", "he", "tagibr", "2geibr"} {
		series, err := harness.RunSpaceSeries(harness.Config{
			Structure: "hashmap", Scheme: scheme, Threads: 2,
			Stalled: 1, StallFor: d / 2,
			Duration: d, KeyRange: 4096,
		}, d/100)
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(outDir, "stallcurve-"+scheme+".csv"))
		if err != nil {
			return err
		}
		if err := harness.WriteSpaceSeriesCSV(f, series); err != nil {
			f.Close()
			return err
		}
		f.Close()
		s := plot.Series{Name: scheme}
		for _, p := range series.Points {
			s.X = append(s.X, float64(p.T.Microseconds())/1000)
			s.Y = append(s.Y, float64(p.Retired))
		}
		chart.Series = append(chart.Series, s)
		fmt.Fprintf(os.Stderr, "   %-8s %d samples\n", scheme, len(series.Points))
	}
	path := filepath.Join(outDir, "stallcurve.svg")
	if err := os.WriteFile(path, []byte(chart.SVG()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "   wrote %s\n", path)
	return nil
}
