// Package plot renders line charts, as SVG or as an ASCII table, with the
// Go standard library only. It stands in for the R script the paper's
// artifact uses to draw Figs. 8–10: one chart per figure, one series per
// reclamation scheme, thread count on the x axis.
package plot

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Series is one line on a chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart is a renderable line chart.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// LogY selects a log10 y axis (useful for space plots whose series
	// span orders of magnitude).
	LogY bool
	// Width and Height are the SVG canvas size; zero selects 860×520.
	Width, Height int
}

// palette holds line colors (ColorBrewer-ish, readable on white).
var palette = []string{
	"#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e",
	"#e6ab02", "#a6761d", "#666666", "#1f78b4", "#b2182b",
}

// markers are per-series point glyphs so lines stay distinguishable in
// grayscale.
var markers = []string{"circle", "square", "diamond", "triangle", "circle", "square", "diamond", "triangle", "circle", "square"}

// SVG renders the chart.
func (c *Chart) SVG() string {
	w, h := c.Width, c.Height
	if w == 0 {
		w = 860
	}
	if h == 0 {
		h = 520
	}
	const (
		marginL = 80
		marginR = 170
		marginT = 50
		marginB = 60
	)
	plotW := float64(w - marginL - marginR)
	plotH := float64(h - marginT - marginB)

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			y := s.Y[i]
			if c.LogY && y <= 0 {
				continue
			}
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, y)
			maxY = math.Max(maxY, y)
		}
	}
	if math.IsInf(minX, 1) { // no data
		minX, maxX, minY, maxY = 0, 1, 0, 1
	}
	if c.LogY {
		minY = math.Log10(minY)
		maxY = math.Log10(maxY)
	}
	if maxY == minY {
		maxY = minY + 1
	}
	if maxX == minX {
		maxX = minX + 1
	}
	// pad y range 5%
	pad := (maxY - minY) * 0.05
	minY -= pad
	maxY += pad

	xPix := func(x float64) float64 { return float64(marginL) + (x-minX)/(maxX-minX)*plotW }
	yVal := func(y float64) float64 {
		if c.LogY {
			return math.Log10(y)
		}
		return y
	}
	yPix := func(y float64) float64 { return float64(marginT) + (1-(y-minY)/(maxY-minY))*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	fmt.Fprintf(&b, `<text x="%d" y="28" font-family="sans-serif" font-size="16" font-weight="bold">%s</text>`+"\n", marginL, esc(c.Title))

	// Axes frame.
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.0f" height="%.0f" fill="none" stroke="#333" stroke-width="1"/>`+"\n",
		marginL, marginT, plotW, plotH)

	// Y ticks.
	for _, t := range ticks(minY, maxY, 6) {
		py := yPix(t)
		label := t
		if c.LogY {
			label = math.Pow(10, t)
		}
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n", marginL, py, float64(marginL)+plotW, py)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginL-6, py+4, fmtNum(label))
	}
	// X ticks at the observed thread counts.
	for _, x := range c.xValues() {
		px := xPix(x)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#333"/>`+"\n",
			px, float64(marginT)+plotH, px, float64(marginT)+plotH+4)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			px, float64(marginT)+plotH+18, fmtNum(x))
	}
	// Axis labels.
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="13" text-anchor="middle">%s</text>`+"\n",
		float64(marginL)+plotW/2, h-14, esc(c.XLabel))
	fmt.Fprintf(&b, `<text x="18" y="%.1f" font-family="sans-serif" font-size="13" text-anchor="middle" transform="rotate(-90 18 %.1f)">%s</text>`+"\n",
		float64(marginT)+plotH/2, float64(marginT)+plotH/2, esc(c.YLabel))

	// Series.
	for si, s := range c.Series {
		color := palette[si%len(palette)]
		var pts []string
		for i := range s.X {
			if c.LogY && s.Y[i] <= 0 {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", xPix(s.X[i]), yPix(yVal(s.Y[i]))))
		}
		if len(pts) > 1 {
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>`+"\n",
				strings.Join(pts, " "), color)
		}
		for i := range s.X {
			if c.LogY && s.Y[i] <= 0 {
				continue
			}
			writeMarker(&b, markers[si%len(markers)], xPix(s.X[i]), yPix(yVal(s.Y[i])), color)
		}
		// Legend entry.
		ly := marginT + 8 + si*20
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="1.8"/>`+"\n",
			w-marginR+12, ly, w-marginR+36, ly, color)
		writeMarker(&b, markers[si%len(markers)], float64(w-marginR+24), float64(ly), color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="12">%s</text>`+"\n",
			w-marginR+42, ly+4, esc(s.Name))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// Table writes the chart as an ASCII table: one row per series, one
// column per x value, "-" where a series has no point at that x.
func (c *Chart) Table(w io.Writer) error {
	xs := c.xValues()
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "# %s (%s)\n%s\t", c.Title, c.YLabel, c.XLabel)
	for _, x := range xs {
		fmt.Fprintf(tw, "%s\t", fmtNum(x))
	}
	for _, s := range c.Series {
		fmt.Fprintf(tw, "\n%s\t", s.Name)
		for _, x := range xs {
			cell := "-"
			if i := slices.Index(s.X, x); i >= 0 {
				cell = strconv.FormatFloat(s.Y[i], 'f', 4, 64)
			}
			fmt.Fprintf(tw, "%s\t", cell)
		}
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

// xValues returns the distinct x values of every series, ascending.
func (c *Chart) xValues() []float64 {
	var xs []float64
	for _, s := range c.Series {
		xs = append(xs, s.X...)
	}
	slices.Sort(xs)
	return slices.Compact(xs)
}

func writeMarker(b *strings.Builder, kind string, x, y float64, color string) {
	const r = 3.2
	switch kind {
	case "square":
		fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n", x-r, y-r, 2*r, 2*r, color)
	case "diamond":
		fmt.Fprintf(b, `<path d="M%.1f %.1f L%.1f %.1f L%.1f %.1f L%.1f %.1f Z" fill="%s"/>`+"\n",
			x, y-r*1.3, x+r*1.3, y, x, y+r*1.3, x-r*1.3, y, color)
	case "triangle":
		fmt.Fprintf(b, `<path d="M%.1f %.1f L%.1f %.1f L%.1f %.1f Z" fill="%s"/>`+"\n",
			x, y-r*1.3, x+r*1.2, y+r, x-r*1.2, y+r, color)
	default:
		fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s"/>`+"\n", x, y, r, color)
	}
}

// ticks picks ~n round tick values covering [lo, hi].
func ticks(lo, hi float64, n int) []float64 {
	span := hi - lo
	if span <= 0 || n < 2 {
		return []float64{lo}
	}
	raw := span / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch {
	case raw/mag < 1.5:
		step = mag
	case raw/mag < 3.5:
		step = 2 * mag
	case raw/mag < 7.5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	var out []float64
	for t := math.Ceil(lo/step) * step; t <= hi; t += step {
		out = append(out, t)
	}
	return out
}

// fmtNum renders a tick label compactly.
func fmtNum(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.3gk", v/1e3)
	case av == math.Trunc(av):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
