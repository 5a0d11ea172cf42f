package obs

import (
	"strings"
	"testing"
)

func TestParseMetrics(t *testing.T) {
	in := `# HELP ibr_ops_total Operations completed per shard.
# TYPE ibr_ops_total counter
ibr_ops_total{shard="0"} 120
ibr_ops_total{shard="1"} 80
ibr_queue_depth 3
ibr_engine_info{structure="hashmap",scheme="tagibr",workers_per_shard="2"} 1
weird_label{v="a\"b\\c\nd"} 1.5
ibr_op_latency_ns_bucket{op="get",le="1024"} 10
ibr_op_latency_ns_bucket{op="get",le="2048"} 30
ibr_op_latency_ns_bucket{op="get",le="+Inf"} 40
`
	m, err := ParseMetrics(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Value("ibr_ops_total", map[string]string{"shard": "1"}); got != 80 {
		t.Errorf("shard 1 ops = %v", got)
	}
	if got := m.Value("ibr_queue_depth", nil); got != 3 {
		t.Errorf("unlabeled value = %v", got)
	}
	if ids := m.ShardIDs("ibr_ops_total"); len(ids) != 2 || ids[0] != "0" || ids[1] != "1" {
		t.Errorf("shardIDs = %v", ids)
	}
	if got := m["weird_label"][0].Labels["v"]; got != "a\"b\\c\nd" {
		t.Errorf("unescaped label = %q", got)
	}

	h := m.Histogram("ibr_op_latency_ns", map[string]string{"op": "get"})
	if h.Count != 40 {
		t.Fatalf("hist count = %v", h.Count)
	}
	// Median rank 20 falls in the (1024,2048] bucket holding ranks 11..30:
	// 1024 + (20-10)/20 · 1024 = 1536.
	if got := h.Quantile(0.5); got != 1536 {
		t.Errorf("p50 = %v, want 1536", got)
	}
	// p99 rank 39.6 lands in the +Inf bucket → clamp to the last bound.
	if got := h.Quantile(0.99); got != 2048 {
		t.Errorf("p99 = %v, want 2048 (clamped)", got)
	}
}

// TestParseSampleLabelEscaping pins the text-format corner cases down:
// spaces inside label values, escaped quotes and backslashes, unknown
// escape pairs (which must keep their backslash, not drop it), and the
// optional trailing timestamp the exposition format permits.
func TestParseSampleLabelEscaping(t *testing.T) {
	for _, tc := range []struct {
		line, label, want string
		value             float64
	}{
		{`m{v="hello world"} 1`, "v", "hello world", 1},
		{`m{v="two  spaces and } brace"} 2`, "v", "two  spaces and } brace", 2},
		{`m{v="say \"hi\""} 3`, "v", `say "hi"`, 3},
		{`m{v="C:\\temp"} 4`, "v", `C:\temp`, 4},
		// \q is not one of the format's three escapes; the backslash
		// stays.
		{`m{v="odd\qpair"} 5`, "v", `odd\qpair`, 5},
		{`m{v="x"} 6 1712345678901`, "v", "x", 6},
		{`m 7 1712345678901`, "", "", 7},
	} {
		s, err := parseSample(tc.line)
		if err != nil {
			t.Errorf("parseSample(%q): %v", tc.line, err)
			continue
		}
		if tc.label != "" {
			if got := s.Labels[tc.label]; got != tc.want {
				t.Errorf("parseSample(%q) label %s = %q, want %q", tc.line, tc.label, got, tc.want)
			}
		}
		if s.Value != tc.value {
			t.Errorf("parseSample(%q) value = %v, want %v", tc.line, s.Value, tc.value)
		}
	}
}

func TestParseMetricsMalformed(t *testing.T) {
	for _, in := range []string{
		"no_value\n",
		"bad{unterminated=\"x\n",
		"bad{le=\"1\"} not-a-number\n",
	} {
		if _, err := ParseMetrics(strings.NewReader(in)); err == nil {
			t.Errorf("parse(%q) succeeded; want error", in)
		}
	}
}
