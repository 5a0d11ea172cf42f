// Command ibrtop is a terminal dashboard over a running ibrd: it polls the
// daemon's Prometheus /metrics endpoint and renders per-shard serving and
// reclamation state — ops/s (from counter deltas), retired-but-unreclaimed
// blocks, epoch and epoch lag — plus engine-wide op latency quantiles,
// retire→free age quantiles, and the stall watchdog's alerts. (There is no
// queue column: a daemon runs every request on its connection reader, so
// ibr_queue_depth moves only for in-process SubmitRequest callers.)
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
	"net/http"
	"os"
	"time"

	"ibr/internal/obs"
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
	var prev obs.MetricSet
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

func scrape(c *http.Client, url string) (obs.MetricSet, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return obs.ParseMetrics(resp.Body)
}

// render draws one frame. rates require a previous frame (hasPrev).
func render(w io.Writer, cur, prev obs.MetricSet, dt time.Duration, hasPrev bool) {
	fmt.Fprintf(w, "ibrtop — %s", time.Now().Format("15:04:05"))
	if info := cur["ibr_engine_info"]; len(info) > 0 {
		l := info[0].Labels
		fmt.Fprintf(w, "   %s × %s, %s workers/shard", l["structure"], l["scheme"], l["workers_per_shard"])
	}
	fmt.Fprintln(w)

	shards := cur.ShardIDs("ibr_ops_total")
	fmt.Fprintf(w, "\n%5s %10s %12s %10s %6s %10s\n",
		"shard", "ops/s", "unreclaimed", "epoch", "lag", "live")
	var totOps, totRate, totUnreclaimed float64
	for _, s := range shards {
		sl := map[string]string{"shard": s}
		ops := cur.Value("ibr_ops_total", sl)
		rate := 0.0
		if hasPrev && dt > 0 {
			rate = (ops - prev.Value("ibr_ops_total", sl)) / dt.Seconds()
		}
		unrec := cur.Value("ibr_unreclaimed", sl)
		totOps, totRate, totUnreclaimed = totOps+ops, totRate+rate, totUnreclaimed+unrec
		fmt.Fprintf(w, "%5s %10.0f %12.0f %10.0f %6.0f %10.0f\n",
			s, rate, unrec,
			cur.Value("ibr_epoch", sl), cur.Value("ibr_epoch_lag", sl),
			cur.Value("ibr_live_blocks", sl))
	}
	fmt.Fprintf(w, "%5s %10.0f %12.0f   (%.0f ops total)\n", "Σ", totRate, totUnreclaimed, totOps)

	if len(cur["ibr_op_latency_ns_bucket"]) > 0 {
		fmt.Fprintf(w, "\n%-18s %10s %10s %10s %12s\n", "latency", "p50", "p99", "count", "")
		for _, op := range []string{"get", "put", "del"} {
			h := cur.Histogram("ibr_op_latency_ns", map[string]string{"op": op})
			fmt.Fprintf(w, "%-18s %10s %10s %10.0f\n", op,
				fmtNanos(h.Quantile(0.50)), fmtNanos(h.Quantile(0.99)), h.Count)
		}
		age := cur.Histogram("ibr_retire_age", nil) // merged over shards
		fmt.Fprintf(w, "%-18s %10.0f %10.0f %10.0f   (epochs)\n", "retire→free age",
			age.Quantile(0.50), age.Quantile(0.99), age.Count)
		scan := cur.Histogram("ibr_scan_duration_ns", nil)
		fmt.Fprintf(w, "%-18s %10s %10s %10.0f\n", "scan duration",
			fmtNanos(scan.Quantile(0.50)), fmtNanos(scan.Quantile(0.99)), scan.Count)
	}

	if len(cur["ibr_stall_alerts_total"]) > 0 {
		fmt.Fprintf(w, "\nwatchdog: %.0f alerts, %.0f stalled now\n",
			cur.Value("ibr_stall_alerts_total", nil),
			cur.Value("ibr_stalled_reservations", nil))
	}
	if len(cur["ibr_flight_events_total"]) > 0 {
		fmt.Fprintf(w, "flight recorder: %.0f events, %.0f overwritten\n",
			cur.Value("ibr_flight_events_total", nil),
			cur.Value("ibr_flight_dropped_total", nil))
	}
}

func fmtNanos(ns float64) string {
	return time.Duration(ns).Round(100 * time.Nanosecond).String()
}
