package plot

import (
	"strings"
	"testing"
)

func sampleChart() *Chart {
	return &Chart{
		Title:  "fig8b — throughput",
		XLabel: "threads",
		YLabel: "M ops/s",
		Series: []Series{
			{Name: "ebr", X: []float64{1, 2, 4}, Y: []float64{7.4, 2.7, 2.7}},
			{Name: "tagibr", X: []float64{1, 2, 4}, Y: []float64{6.7, 2.6, 2.2}},
		},
	}
}

func TestSVGWellFormedBasics(t *testing.T) {
	svg := sampleChart().SVG()
	for _, want := range []string{
		"<svg", "</svg>", "polyline", "ebr", "tagibr", "threads", "M ops/s",
		"fig8b",
	} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	if strings.Count(svg, "<svg") != 1 || strings.Count(svg, "</svg>") != 1 {
		t.Fatal("unbalanced svg tags")
	}
}

func TestSVGEscapesText(t *testing.T) {
	c := sampleChart()
	c.Title = "a<b & c>d"
	svg := c.SVG()
	if strings.Contains(svg, "a<b") {
		t.Fatal("unescaped < in title")
	}
	if !strings.Contains(svg, "a&lt;b &amp; c&gt;d") {
		t.Fatal("escaped title missing")
	}
}

func TestLogYSkipsNonPositive(t *testing.T) {
	c := &Chart{
		LogY: true,
		Series: []Series{
			{Name: "s", X: []float64{1, 2, 3}, Y: []float64{0, 10, 100}},
		},
	}
	svg := c.SVG()
	// Only 2 positive points: the polyline has exactly two coordinates.
	if !strings.Contains(svg, "polyline") {
		t.Fatal("no polyline for positive points")
	}
}

func TestEmptyChartDoesNotPanic(t *testing.T) {
	c := &Chart{Title: "empty"}
	if svg := c.SVG(); !strings.Contains(svg, "</svg>") {
		t.Fatal("empty chart produced invalid SVG")
	}
}

func TestSingleValueRanges(t *testing.T) {
	c := &Chart{Series: []Series{{Name: "p", X: []float64{5}, Y: []float64{42}}}}
	if svg := c.SVG(); !strings.Contains(svg, "</svg>") {
		t.Fatal("degenerate ranges broke rendering")
	}
}

func TestTicksAreRound(t *testing.T) {
	for _, tc := range []struct{ lo, hi float64 }{
		{0, 10}, {0, 1}, {3, 97000}, {-5, 5}, {0.001, 0.009},
	} {
		ts := ticks(tc.lo, tc.hi, 6)
		if len(ts) < 2 || len(ts) > 14 {
			t.Fatalf("ticks(%v,%v) produced %d ticks: %v", tc.lo, tc.hi, len(ts), ts)
		}
		for _, v := range ts {
			if v < tc.lo-1e-9 || v > tc.hi+1e-9 {
				t.Fatalf("tick %v outside [%v,%v]", v, tc.lo, tc.hi)
			}
		}
	}
}

func TestFmtNum(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		7:       "7",
		1500:    "1.5k",
		2500000: "2.5M",
		0.25:    "0.25",
	}
	for in, want := range cases {
		if got := fmtNum(in); got != want {
			t.Errorf("fmtNum(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestChartTable(t *testing.T) {
	c := sampleChart()
	c.Series = append(c.Series, Series{Name: "hp", X: []float64{4, 1}, Y: []float64{5.5, 1234567.25}})
	var sb strings.Builder
	if err := c.Table(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# fig8b — throughput (M ops/s)
  threads             1       2       4
      ebr        7.4000  2.7000  2.7000
   tagibr        6.7000  2.6000  2.2000
       hp  1234567.2500       -  5.5000
`
	if got := sb.String(); got != want {
		t.Fatalf("table:\n%s\nwant:\n%s", got, want)
	}
}
