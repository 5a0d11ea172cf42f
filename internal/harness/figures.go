package harness

import (
	"fmt"
	"time"

	"ibr/internal/core"
)

// Experiment is one of the paper's evaluation artifacts: a sweep of
// benchmark cells whose output regenerates a figure (or pair of figures:
// every throughput plot in Fig. 8 shares its cells with the space plot in
// Fig. 9, so one sweep yields both).
type Experiment struct {
	ID        string // e.g. "fig8a" (also covers fig9a)
	Title     string
	Structure string
	Workload  Workload
	Schemes   []string
	Threads   []int
	// KeyRange overrides the default 65536 (0 = default).
	KeyRange uint64
	// EmptyFreqs, when non-empty, sweeps the retire-scan frequency instead
	// of reading it from the config (the §5 tuning experiment).
	EmptyFreqs []int
	// Stalled workers per cell (the preempted-thread regime).
	Stalled int
}

// Paper scheme line-ups. Fig. 8a–c / 9a–c include the pointer-based
// schemes; the Bonsai tree panels swap HP/HE for POIBR (§5: "We didn't
// include precise approaches (HP and HE) for the Bonsai Tree").
var (
	generalSchemes = []string{"none", "ebr", "hp", "he", "tagibr", "tagibr-faa", "tagibr-wcas", "2geibr"}
	bonsaiSchemes  = []string{"none", "ebr", "poibr", "tagibr", "tagibr-faa", "tagibr-wcas", "2geibr"}
	spaceSchemes   = []string{"ebr", "hp", "he", "tagibr", "tagibr-faa", "tagibr-wcas", "2geibr"}
)

// DefaultThreads is the thread sweep used on this (single-CPU) testbed; the
// paper sweeps 1..100 over 72 hardware threads. Everything above
// GOMAXPROCS runs oversubscribed, which is the regime the paper's
// right-hand plot regions probe.
var DefaultThreads = []int{1, 2, 4, 8, 16, 32, 64, 96}

// Experiments returns the full per-figure index (see DESIGN.md §4).
func Experiments() []Experiment {
	return []Experiment{
		{
			ID: "fig8a", Title: "Harris-Michael list: throughput (Fig 8a) + space (Fig 9a), write-dominated",
			Structure: "list", Workload: WriteDominated,
			Schemes: generalSchemes, Threads: DefaultThreads,
			// The full 65536-key list makes each op traverse ~25k nodes; the
			// artifact uses the full range, and so do we.
		},
		{
			ID: "fig8b", Title: "Michael hash map: throughput (Fig 8b) + space (Fig 9b), write-dominated",
			Structure: "hashmap", Workload: WriteDominated,
			Schemes: generalSchemes, Threads: DefaultThreads,
		},
		{
			ID: "fig8c", Title: "Natarajan-Mittal tree: throughput (Fig 8c) + space (Fig 9c), write-dominated",
			Structure: "nmtree", Workload: WriteDominated,
			Schemes: generalSchemes, Threads: DefaultThreads,
		},
		{
			ID: "fig8d", Title: "Bonsai tree: throughput (Fig 8d) + space (Fig 9d), write-dominated",
			Structure: "bonsai", Workload: WriteDominated,
			Schemes: bonsaiSchemes, Threads: DefaultThreads,
		},
		{
			ID: "fig10", Title: "Natarajan-Mittal tree: space, read-dominated (Fig 10)",
			Structure: "nmtree", Workload: ReadDominated,
			Schemes: spaceSchemes, Threads: DefaultThreads,
		},
		{
			ID: "ksweep", Title: "§5 tuning: space vs empty-frequency k (throughput should stay flat, space ~linear)",
			Structure: "hashmap", Workload: WriteDominated,
			Schemes: []string{"ebr", "tagibr", "2geibr"}, Threads: []int{4},
			EmptyFreqs: []int{1, 5, 10, 20, 30, 50},
		},
		{
			ID: "stall", Title: "§4.3.1 robustness: space with 2 stalled threads (EBR unbounded, IBR/HP/HE bounded)",
			Structure: "hashmap", Workload: WriteDominated,
			Schemes: spaceSchemes, Threads: []int{2, 4, 8},
			// A small structure makes Theorem 2's bound visible: each IBR
			// can pin at most the blocks alive at the stalled epoch (~3k
			// here), while EBR pins every subsequent retirement.
			KeyRange: 4096,
			Stalled:  2,
		},
	}
}

// ExperimentByID finds an experiment ("fig8a", "fig9a" → the 8a sweep, …).
func ExperimentByID(id string) (Experiment, error) {
	alias := map[string]string{
		"fig9a": "fig8a", "fig9b": "fig8b", "fig9c": "fig8c", "fig9d": "fig8d",
		"8a": "fig8a", "8b": "fig8b", "8c": "fig8c", "8d": "fig8d",
		"9a": "fig8a", "9b": "fig8b", "9c": "fig8c", "9d": "fig8d",
		"10": "fig10", "k": "ksweep",
	}
	if canonical, ok := alias[id]; ok {
		id = canonical
	}
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// Cells expands an experiment into concrete benchmark configs.
func (e Experiment) Cells(duration time.Duration, threadsOverride []int) []Config {
	threads := e.Threads
	if len(threadsOverride) > 0 {
		threads = threadsOverride
	}
	var out []Config
	for _, th := range threads {
		for _, s := range e.Schemes {
			base := Config{
				Structure: e.Structure,
				Scheme:    s,
				Threads:   th,
				Duration:  duration,
				Workload:  e.Workload,
				KeyRange:  e.KeyRange,
				Stalled:   e.Stalled,
				EmptyFreq: core.DefaultEmptyFreq,
			}
			if len(e.EmptyFreqs) == 0 {
				out = append(out, base)
				continue
			}
			for _, k := range e.EmptyFreqs {
				c := base
				c.EmptyFreq = k
				out = append(out, c)
			}
		}
	}
	return out
}
