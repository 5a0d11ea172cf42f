package main

import (
	"math"
	"os"
	"slices"
	"testing"

	"ibr/internal/harness"
)

// TestBenchScanShape gates the committed scan-efficiency snapshot that
// make benchscan writes: seven cells in the recipe's order, every record
// complete and self-consistent, and TagIBR-WCAS's bucketed scans not
// regressed to full-list scans.
func TestBenchScanShape(t *testing.T) {
	f, err := os.Open("../../BENCH_scan.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := harness.ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 {
		t.Fatalf("BENCH_scan.json has %d records, want 7", len(recs))
	}
	for _, rec := range recs {
		if rec.Structure == "" || rec.Mode == "" || rec.Threads <= 0 || rec.Nproc <= 0 || rec.GOMAXPROCS <= 0 {
			t.Errorf("%s/%s: incomplete record %+v", rec.Scheme, rec.Mode, rec)
		}
		if rec.ScanCounts == nil {
			t.Fatalf("%s/%s: no scan counts", rec.Scheme, rec.Mode)
		}
		// Every cell retires, so a zero here is a field the line lacks.
		if rec.AvgRetired <= 0 || rec.Scans == 0 || rec.ScanFreed == 0 || rec.ScanExaminedMean <= 0 || rec.ExaminedPerFreed <= 0 {
			t.Errorf("%s/%s: missing retirement or scan fields: %+v", rec.Scheme, rec.Mode, *rec.ScanCounts)
		}
		if rec.Ops == 0 {
			t.Errorf("%s/%s: benchmark performed no operations", rec.Scheme, rec.Mode)
		}
		// seconds is the measured wall time Mops was computed with, so
		// ops/seconds and mops must agree to rounding.
		if derived := float64(rec.Ops) / rec.Seconds / 1e6; math.Abs(derived-rec.Mops) > 0.01*rec.Mops {
			t.Errorf("%s/%s: ops/seconds = %.3f Mops but mops = %.3f", rec.Scheme, rec.Mode, derived, rec.Mops)
		}
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
