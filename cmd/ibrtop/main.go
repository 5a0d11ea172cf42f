// Command ibrtop is a terminal dashboard over a running ibrd: it polls the
// daemon's Prometheus /metrics endpoint and renders per-shard serving and
// reclamation state — ops/s (from counter deltas), queue depth,
// retired-but-unreclaimed blocks, epoch and epoch lag — plus engine-wide op
// latency quantiles, retire→free age quantiles, and the stall watchdog's
// alerts.
//
//	ibrtop -addr http://127.0.0.1:4101 -i 1s
//
// It needs nothing beyond the text exposition /metrics already serves, so it
// works against any scrape endpoint emitting the ibr_* families.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:4101", "ibrd HTTP address (the /metrics endpoint's base URL)")
		interval = flag.Duration("i", time.Second, "poll interval")
		count    = flag.Int("n", 0, "frames to render before exiting (0 = until interrupted)")
		plain    = flag.Bool("plain", false, "append frames instead of redrawing in place (for logs/pipes)")
	)
	flag.Parse()

	url := *addr + "/metrics"
	client := &http.Client{Timeout: 5 * time.Second}
	var prev metricSet
	var prevAt time.Time
	for frame := 0; *count == 0 || frame < *count; frame++ {
		if frame > 0 {
			time.Sleep(*interval)
		}
		cur, err := scrape(client, url)
		now := time.Now()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ibrtop: %v\n", err)
			os.Exit(1)
		}
		if !*plain {
			fmt.Print("\x1b[H\x1b[2J") // cursor home + clear screen
		}
		render(os.Stdout, cur, prev, now.Sub(prevAt), frame > 0)
		prev, prevAt = cur, now
	}
}

func scrape(c *http.Client, url string) (metricSet, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return parseMetrics(resp.Body)
}

// render draws one frame. rates require a previous frame (hasPrev).
func render(w io.Writer, cur, prev metricSet, dt time.Duration, hasPrev bool) {
	fmt.Fprintf(w, "ibrtop — %s", time.Now().Format("15:04:05"))
	if info := cur.first("ibr_engine_info"); info != nil {
		fmt.Fprintf(w, "   %s × %s, %s workers/shard",
			info.labels["structure"], info.labels["scheme"], info.labels["workers_per_shard"])
	}
	fmt.Fprintln(w)

	shards := cur.shardIDs("ibr_ops_total")
	fmt.Fprintf(w, "\n%5s %10s %7s %12s %10s %6s %10s\n",
		"shard", "ops/s", "queue", "unreclaimed", "epoch", "lag", "live")
	var totOps, totRate, totQueue, totUnreclaimed float64
	for _, s := range shards {
		sl := map[string]string{"shard": s}
		ops := cur.value("ibr_ops_total", sl)
		rate := 0.0
		if hasPrev && dt > 0 {
			rate = (ops - prev.value("ibr_ops_total", sl)) / dt.Seconds()
		}
		queue := cur.value("ibr_queue_depth", sl)
		unrec := cur.value("ibr_unreclaimed", sl)
		totOps, totRate, totQueue, totUnreclaimed = totOps+ops, totRate+rate, totQueue+queue, totUnreclaimed+unrec
		fmt.Fprintf(w, "%5s %10.0f %7.0f %12.0f %10.0f %6.0f %10.0f\n",
			s, rate, queue, unrec,
			cur.value("ibr_epoch", sl), cur.value("ibr_epoch_lag", sl),
			cur.value("ibr_live_blocks", sl))
	}
	fmt.Fprintf(w, "%5s %10.0f %7.0f %12.0f   (%.0f ops total)\n", "Σ", totRate, totQueue, totUnreclaimed, totOps)

	if cur.has("ibr_op_latency_ns_bucket") {
		fmt.Fprintf(w, "\n%-18s %10s %10s %10s %12s\n", "latency", "p50", "p99", "count", "")
		for _, op := range []string{"get", "put", "del"} {
			h := cur.histogram("ibr_op_latency_ns", map[string]string{"op": op})
			fmt.Fprintf(w, "%-18s %10s %10s %10.0f\n", op,
				fmtNanos(h.quantile(0.50)), fmtNanos(h.quantile(0.99)), h.count)
		}
		age := cur.histogram("ibr_retire_age", nil) // merged over shards
		fmt.Fprintf(w, "%-18s %10.0f %10.0f %10.0f   (epochs)\n", "retire→free age",
			age.quantile(0.50), age.quantile(0.99), age.count)
		scan := cur.histogram("ibr_scan_duration_ns", nil)
		fmt.Fprintf(w, "%-18s %10s %10s %10.0f\n", "scan duration",
			fmtNanos(scan.quantile(0.50)), fmtNanos(scan.quantile(0.99)), scan.count)
	}

	if cur.has("ibr_stall_alerts_total") {
		fmt.Fprintf(w, "\nwatchdog: %.0f alerts, %.0f stalled now\n",
			cur.value("ibr_stall_alerts_total", nil),
			cur.value("ibr_stalled_reservations", nil))
	}
	if cur.has("ibr_flight_events_total") {
		fmt.Fprintf(w, "flight recorder: %.0f events, %.0f overwritten\n",
			cur.value("ibr_flight_events_total", nil),
			cur.value("ibr_flight_dropped_total", nil))
	}
}

func fmtNanos(ns float64) string {
	return time.Duration(ns).Round(100 * time.Nanosecond).String()
}

// sample is one parsed exposition line: name{labels} value.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// metricSet indexes samples by metric name.
type metricSet map[string][]sample

func (m metricSet) has(name string) bool { return len(m[name]) > 0 }

func (m metricSet) first(name string) *sample {
	if ss := m[name]; len(ss) > 0 {
		return &ss[0]
	}
	return nil
}

// value returns the first sample of name whose labels include sel (nil
// matches anything), 0 when absent.
func (m metricSet) value(name string, sel map[string]string) float64 {
	for i := range m[name] {
		if m[name][i].match(sel) {
			return m[name][i].value
		}
	}
	return 0
}

func (s *sample) match(sel map[string]string) bool {
	for k, v := range sel {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// shardIDs lists the distinct numeric `shard` label values of name, sorted.
func (m metricSet) shardIDs(name string) []string {
	seen := map[string]bool{}
	for i := range m[name] {
		if s, ok := m[name][i].labels["shard"]; ok && !seen[s] {
			seen[s] = true
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := strconv.Atoi(out[i])
		b, _ := strconv.Atoi(out[j])
		return a < b
	})
	return out
}

// hist is a cumulative-bucket view rebuilt from <name>_bucket samples.
type hist struct {
	bounds []float64 // ascending le values, +Inf last
	cums   []float64
	count  float64
}

// histogram merges every <name>_bucket member matching sel into one
// cumulative histogram (members with identical le are summed — that is how
// the per-shard retire-age family aggregates into an engine view).
func (m metricSet) histogram(name string, sel map[string]string) hist {
	byLe := map[float64]float64{}
	for i := range m[name+"_bucket"] {
		s := &m[name+"_bucket"][i]
		if !s.match(sel) {
			continue
		}
		le, err := parseLe(s.labels["le"])
		if err != nil {
			continue
		}
		byLe[le] += s.value
	}
	h := hist{}
	for le := range byLe {
		h.bounds = append(h.bounds, le)
	}
	sort.Float64s(h.bounds)
	for _, le := range h.bounds {
		h.cums = append(h.cums, byLe[le])
	}
	if n := len(h.cums); n > 0 {
		h.count = h.cums[n-1] // the +Inf bucket
	}
	return h
}

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// quantile interpolates inside the bucket containing rank q·count, matching
// the exporter's log2 bucket layout (lower bound = previous le, 0 for the
// first bucket).
func (h hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := q * h.count
	lo := 0.0
	for i, cum := range h.cums {
		if cum >= target {
			hi := h.bounds[i]
			if math.IsInf(hi, 1) { // +Inf bucket: clamp to the last finite bound
				if i == 0 {
					return 0
				}
				return h.bounds[i-1]
			}
			var below float64
			if i > 0 {
				below = h.cums[i-1]
				lo = h.bounds[i-1]
			}
			inBucket := cum - below
			if inBucket <= 0 {
				return hi
			}
			frac := (target - below) / inBucket
			return lo + frac*(hi-lo)
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// parseMetrics reads the Prometheus text exposition format: comment lines
// are skipped, every other line is name[{labels}] value. Label values may
// contain escaped quotes, backslashes, and newlines.
func parseMetrics(r io.Reader) (metricSet, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := metricSet{}
	for ln, line := range splitLines(string(data)) {
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		out[s.name] = append(out[s.name], s)
	}
	return out, nil
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func parseSample(line string) (sample, error) {
	s := sample{labels: map[string]string{}}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	if i == 0 || i == len(line) {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.name = line[:i]
	if line[i] == '{' {
		i++
		for i < len(line) && line[i] != '}' {
			ks := i
			for i < len(line) && line[i] != '=' {
				i++
			}
			if i >= len(line) || i+1 >= len(line) || line[i+1] != '"' {
				return s, fmt.Errorf("malformed labels in %q", line)
			}
			key := line[ks:i]
			i += 2 // past ="
			var val []byte
			for i < len(line) && line[i] != '"' {
				if line[i] == '\\' && i+1 < len(line) {
					i++
					switch line[i] {
					case 'n':
						val = append(val, '\n')
					case '\\', '"':
						val = append(val, line[i])
					default:
						// The text format defines exactly three escapes
						// (\n, \\, \"); anything else is a literal
						// backslash followed by that byte. Dropping the
						// backslash here used to corrupt such values.
						val = append(val, '\\', line[i])
					}
				} else {
					val = append(val, line[i])
				}
				i++
			}
			if i >= len(line) {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			i++ // closing quote
			s.labels[key] = string(val)
			if i < len(line) && line[i] == ',' {
				i++
			}
		}
		if i >= len(line) || line[i] != '}' {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		i++
	}
	for i < len(line) && line[i] == ' ' {
		i++
	}
	// The value token ends at the next space: the format allows an optional
	// trailing millisecond timestamp ("name 1 1712345678901"), which this
	// reader ignores rather than choking on.
	j := i
	for j < len(line) && line[j] != ' ' {
		j++
	}
	v, err := strconv.ParseFloat(line[i:j], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.value = v
	return s, nil
}
