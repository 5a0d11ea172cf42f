// Command bench is the repository benchmark: one workload per run, driven
// from its own closed-loop callers through the library (ds.Map directly) or
// the served path (server.Client → server.Server → server.Engine), with
// every answer checked. It prints each metric on its own line and, last, one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"ops_per_s": {"value": ..., "unit": "ops/s"}, ...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 instead runs the
// workload through all three layers (ds, engine, wire) with spans on and
// reports the per-layer metrics, writing the spans as Chrome trace-event
// JSON. --runs N runs N fresh child processes with seeds seed..seed+N-1 and
// reports each metric's median and quartiles. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

const (
	warmup = time.Second
	// setups is how many times an end-to-end run builds its system; setup_s
	// is their median.
	setups = 5
	// runLimit stops a wedged run well inside the 180 s a run may take.
	runLimit = 170 * time.Second
)

func main() {
	var (
		name     = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+" (all: every workload, with -runs)")
		seed     = flag.Int64("seed", 1, "seed for every generated key, op and prefill")
		seconds  = flag.Float64("seconds", 15, "measured seconds per run (after a 1 s warm-up)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run through every layer")
		traceOut = flag.String("trace-out", "", "trace-event JSON file of a --trace 1 run (default <build dir>/trace-<workload>.json)")
		runs     = flag.Int("runs", 0, "run N fresh child processes with seeds seed..seed+N-1 and report medians and quartiles")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0 or 1, --seconds positive, and no positional arguments")
		os.Exit(2)
	}
	if *name == "all" || *runs > 0 {
		names := []string{*name}
		if *name == "all" {
			names = workloadNames()
		}
		os.Exit(repeat(names, *seed, *seconds, *trace, max(*runs, 1)))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; valid: %s\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s did not finish within %v\n", w.name, runLimit)
		os.Exit(3)
	})

	nproc := runtime.NumCPU()
	measure := time.Duration(*seconds * float64(time.Second))
	var (
		rep    *report
		passes []*passResult
		err    error
	)
	if *trace == 1 {
		passes, err = tracedRun(w, *seed, nproc, warmup, measure)
		if err == nil {
			rep = layerReport(w, passes)
			path := *traceOut
			if path == "" {
				path = filepath.Join(buildDir(), "trace-"+w.name+".json")
			}
			if err = writeTrace(path, passes); err == nil {
				fmt.Printf("# trace: %d spans written to %s\n", rep.spans, path)
			}
		}
	} else {
		var p *passResult
		p, err = runPass(passConfig{w: w, level: w.level, seed: *seed, nproc: nproc,
			warmup: warmup, measure: measure, setups: setups, origin: time.Now()})
		if err == nil {
			rep = e2eReport(p)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	env := envTag(*seed)
	for _, m := range rep.metrics {
		n := ""
		if m.n > 0 {
			n = " n=" + strconv.Itoa(m.n)
		}
		fmt.Printf("%s %s %s %s%s | %s\n", w.name, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit, n, env)
	}
	for _, e := range rep.errs {
		fmt.Fprintf(os.Stderr, "bench: %s: validation failed: %v\n", w.name, e)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(rep.errs) > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// buildDir is where run.sh builds the binary; traces default to it so a run
// writes nothing outside the build directory.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// envTag records what the numbers depend on besides the code.
func envTag(seed int64) string {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d %s seed=%d rev=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed, rev)
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// repeat runs every named workload runs times, each run a fresh child
// process of this binary, and prints each metric's median and quartiles.
// With one workload the last line is the JSON object of the medians.
func repeat(names []string, seed int64, seconds float64, trace, runs int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	var last result
	for _, name := range names {
		if findWorkload(name) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q; valid: %s\n", name, strings.Join(workloadNames(), ", "))
			return 2
		}
		values := map[string][]float64{}
		units := map[string]string{}
		agg := result{Correct: true, Metrics: map[string]metricValue{}}
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			r, perr := lastJSON(out)
			if err != nil || perr != nil || !r.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d failed: %v %v\n", name, s, err, perr)
				agg.Correct, code = false, 1
				continue
			}
			agg.Attempted += r.Attempted
			agg.Failed += r.Failed
			var parts []string
			for m, v := range r.Metrics {
				values[m] = append(values[m], v.Value)
				units[m] = v.Unit
				parts = append(parts, m+"="+strconv.FormatFloat(v.Value, 'g', 6, 64))
			}
			slices.Sort(parts)
			fmt.Printf("# %s seed=%d %s\n", name, s, strings.Join(parts, " "))
		}
		metrics := make([]string, 0, len(values))
		for m := range values {
			metrics = append(metrics, m)
		}
		slices.Sort(metrics)
		for _, m := range metrics {
			q1, q2, q3 := quartiles(values[m])
			fmt.Printf("%s %s median=%s q1=%s q3=%s spread=%.4f %s n=%d | %s\n", name, m,
				strconv.FormatFloat(q2, 'g', 6, 64), strconv.FormatFloat(q1, 'g', 6, 64),
				strconv.FormatFloat(q3, 'g', 6, 64), ratio(q3-q1, q2), units[m], len(values[m]), envTag(seed))
			agg.Metrics[m] = metricValue{Value: median(values[m]), Unit: units[m]}
		}
		last = agg
	}
	if len(names) == 1 {
		line, _ := json.Marshal(last)
		fmt.Println(string(line))
	}
	return code
}

// lastJSON parses the final line of a run's standard output.
func lastJSON(out []byte) (result, error) {
	var r result
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	var line string
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			line = t
		}
	}
	if line == "" {
		return r, errors.New("no output")
	}
	return r, json.Unmarshal([]byte(line), &r)
}
