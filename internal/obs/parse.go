package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is PromWriter's reader: a parser for the text exposition format
// /metrics serves, plus the lookups its consumers (ibrtop's dashboard, the
// daemon's end-to-end test) run over a scrape.

// Sample is one parsed exposition line: name{labels} value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// MetricSet indexes samples by metric name.
type MetricSet map[string][]Sample

// Value returns the first sample of name whose labels include sel (nil
// matches anything), 0 when absent.
func (m MetricSet) Value(name string, sel map[string]string) float64 {
	for i := range m[name] {
		if m[name][i].Match(sel) {
			return m[name][i].Value
		}
	}
	return 0
}

// Match reports whether s carries every label in sel.
func (s *Sample) Match(sel map[string]string) bool {
	for k, v := range sel {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// ShardIDs lists the distinct numeric `shard` label values of name, sorted.
func (m MetricSet) ShardIDs(name string) []string {
	seen := map[string]bool{}
	for i := range m[name] {
		if s, ok := m[name][i].Labels["shard"]; ok && !seen[s] {
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

// ScrapedHist is a cumulative-bucket view rebuilt from <name>_bucket samples.
type ScrapedHist struct {
	Bounds []float64 // ascending le values, +Inf last
	Cums   []float64
	Count  float64
}

// Histogram merges every <name>_bucket member matching sel into one
// cumulative histogram (members with identical le are summed — that is how
// the per-shard retire-age family aggregates into an engine view).
func (m MetricSet) Histogram(name string, sel map[string]string) ScrapedHist {
	byLe := map[float64]float64{}
	for i := range m[name+"_bucket"] {
		s := &m[name+"_bucket"][i]
		if !s.Match(sel) {
			continue
		}
		le, err := parseLe(s.Labels["le"])
		if err != nil {
			continue
		}
		byLe[le] += s.Value
	}
	h := ScrapedHist{}
	for le := range byLe {
		h.Bounds = append(h.Bounds, le)
	}
	sort.Float64s(h.Bounds)
	for _, le := range h.Bounds {
		h.Cums = append(h.Cums, byLe[le])
	}
	if n := len(h.Cums); n > 0 {
		h.Count = h.Cums[n-1] // the +Inf bucket
	}
	return h
}

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Quantile interpolates inside the bucket containing rank q·count, matching
// the exporter's log2 bucket layout (lower bound = previous le, 0 for the
// first bucket).
func (h ScrapedHist) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * h.Count
	lo := 0.0
	for i, cum := range h.Cums {
		if cum >= target {
			hi := h.Bounds[i]
			if math.IsInf(hi, 1) { // +Inf bucket: clamp to the last finite bound
				if i == 0 {
					return 0
				}
				return h.Bounds[i-1]
			}
			var below float64
			if i > 0 {
				below = h.Cums[i-1]
				lo = h.Bounds[i-1]
			}
			inBucket := cum - below
			if inBucket <= 0 {
				return hi
			}
			frac := (target - below) / inBucket
			return lo + frac*(hi-lo)
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// ParseMetrics reads the Prometheus text exposition format: comment lines
// are skipped, every other line is name[{labels}] value. Label values may
// contain escaped quotes, backslashes, and newlines.
func ParseMetrics(r io.Reader) (MetricSet, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := MetricSet{}
	for ln, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		out[s.Name] = append(out[s.Name], s)
	}
	return out, nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	if i == 0 || i == len(line) {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
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
			s.Labels[key] = string(val)
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
	s.Value = v
	return s, nil
}
