package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
)

// Record is one measured cell as one JSON line: the lines of ibrfigs'
// data/<experiment>.jsonl and of `ibrbench -json`'s BENCH_scan.json.
// NewRecord and WriteRecord are its only writer and ReadRecords its only
// reader, so every consumer of a measurement reads the same fields.
type Record struct {
	Experiment string `json:"experiment,omitempty"` // ibrfigs' experiment ID
	Structure  string `json:"structure"`
	Scheme     string `json:"scheme"`
	Threads    int    `json:"threads"`
	Stalled    int    `json:"stalled"`
	EmptyFreq  int    `json:"emptyfreq"`
	Mode       string `json:"mode"` // the Workload: "write" or "read"
	// Seconds is the measured wall time Mops was computed with, not the
	// requested interval: in-flight ops finish after the stop flag, so
	// ops/seconds must use Mops's clock or the two silently disagree.
	Seconds    float64 `json:"seconds"`
	Ops        uint64  `json:"ops"`
	Mops       float64 `json:"mops"`
	AvgRetired float64 `json:"avg_retired"`
	Allocs     uint64  `json:"allocs"`
	Frees      uint64  `json:"frees"`
	Live       uint64  `json:"live"`
	// ScanCounts is nil, and its fields absent from the line, in records
	// of runs that did not count their scans.
	*ScanCounts
	Obs bool `json:"obs"`
	// The host the cell ran on: its CPU count and the Go scheduler's
	// parallelism, without which ops/s cannot be compared across runs.
	Nproc      int `json:"nproc"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

// ScanCounts is a cell's reclamation scan work (Result's Scan* fields).
type ScanCounts struct {
	Scans            uint64  `json:"scans"`
	ScanExaminedMean float64 `json:"scan_examined_mean"`
	ScanFreed        uint64  `json:"scan_freed"`
	ExaminedPerFreed float64 `json:"examined_per_freed"`
	BucketSkips      uint64  `json:"bucket_skips"`
	BucketFrees      uint64  `json:"bucket_frees"`
}

// NewRecord is the record of one measured cell, stamped with this host's
// CPU count and GOMAXPROCS.
func NewRecord(experiment string, r Result) Record {
	scan := &ScanCounts{
		Scans:            r.Scans,
		ScanExaminedMean: r.ScanMeanLen,
		ScanFreed:        r.ScanFreed,
		BucketSkips:      r.ScanBucketSkips,
		BucketFrees:      r.ScanBucketFrees,
	}
	if r.ScanFreed > 0 {
		scan.ExaminedPerFreed = float64(r.ScanExamined) / float64(r.ScanFreed)
	}
	return Record{
		Experiment: experiment,
		Structure:  r.Structure,
		Scheme:     r.Scheme,
		Threads:    r.Threads,
		Stalled:    r.Stalled,
		EmptyFreq:  r.EmptyFreq,
		Mode:       r.Workload.String(),
		Seconds:    r.Elapsed.Seconds(),
		Ops:        r.Ops,
		Mops:       r.Mops,
		AvgRetired: r.AvgRetired,
		Allocs:     r.Allocs,
		Frees:      r.Frees,
		Live:       r.Live,
		ScanCounts: scan,
		Obs:        r.Obs != nil,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// WriteRecord writes rec as one JSON line.
func WriteRecord(w io.Writer, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = w.Write(append(line, '\n'))
	return err
}

// ReadRecords parses the records of r, one JSON object per line. A field
// Record does not have is an error, so a file cannot carry what no reader
// sees.
func ReadRecords(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var recs []Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("harness: record %d: %w", len(recs)+1, err)
		}
		recs = append(recs, rec)
	}
}
