package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

// TestBenchScanShape gates the committed scan-efficiency snapshot that
// make benchscan writes: seven cells in the recipe's order, every record
// complete and self-consistent, and TagIBR-WCAS's bucketed scans not
// regressed to full-list scans.
func TestBenchScanShape(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_scan.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 7 {
		t.Fatalf("BENCH_scan.json has %d lines, want 7", n)
	}
	required := []string{"structure", "scheme", "threads", "mode", "seconds", "ops",
		"mops", "avg_retired", "scans", "scan_examined_mean", "scan_freed",
		"examined_per_freed", "bucket_skips", "bucket_frees", "obs", "nproc", "gomaxprocs"}
	var recs []benchRecord
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var keys map[string]any
		var rec benchRecord
		if err := json.Unmarshal(line, &keys); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		for _, k := range required {
			if _, ok := keys[k]; !ok {
				t.Errorf("%s/%s: missing field %q", rec.Scheme, rec.Mode, k)
			}
		}
		if rec.Ops == 0 {
			t.Errorf("%s/%s: benchmark performed no operations", rec.Scheme, rec.Mode)
		}
		// seconds is the measured wall time Mops was computed with, so
		// ops/seconds and mops must agree to rounding.
		if derived := float64(rec.Ops) / rec.Seconds / 1e6; math.Abs(derived-rec.Mops) > 0.01*rec.Mops {
			t.Errorf("%s/%s: ops/seconds = %.3f Mops but mops = %.3f", rec.Scheme, rec.Mode, derived, rec.Mops)
		}
		recs = append(recs, rec)
	}
	var schemes []string
	var obs []bool
	for _, r := range recs {
		schemes = append(schemes, r.Scheme)
		obs = append(obs, r.Obs)
	}
	if want := []string{"tagibr", "tagibr-wcas", "ebr", "tagibr", "tagibr", "hyaline", "debra"}; !slices.Equal(schemes, want) {
		t.Fatalf("cell order %v, want %v", schemes, want)
	}
	if want := []bool{false, false, false, false, true, false, false}; !slices.Equal(obs, want) {
		t.Fatalf("obs flags %v, want exactly the fifth cell with obs hooks live", obs)
	}
	// The bucketed-scan gate: TagIBR-WCAS's write-mode scans must not
	// re-examine the backlog (the pre-bucketing cell sat at ~117 examined
	// per freed block).
	wcas := recs[1]
	if wcas.Mode != "write" || wcas.ScanFreed == 0 {
		t.Fatalf("tagibr-wcas cell: mode %q, %d freed; want a write cell that freed blocks", wcas.Mode, wcas.ScanFreed)
	}
	if wcas.ExaminedPerFreed >= 117 {
		t.Fatalf("tagibr-wcas examined/freed = %.1f, regressed to full-list scans", wcas.ExaminedPerFreed)
	}
}
