// Package viz renders experiment output as plain-text tables, histograms,
// and time-series sparklines. It stands in for the paper's D3-based
// visualization layer: the cyberinfrastructure's reports are rendered
// human-readable without a browser.
package viz

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: append([]string(nil), headers...)}
}

// AddRow appends a row; values are formatted with %v, floats with %.4g.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a numeric series as a compact unicode strip.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if span > 0 {
			idx = int((v - lo) / span * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// Stats returns the mean, min, and max of a series (zeros for empty input).
func Stats(values []float64) (mean, lo, hi float64) {
	if len(values) == 0 {
		return 0, 0, 0
	}
	lo, hi = values[0], values[0]
	sum := 0.0
	for _, v := range values {
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return sum / float64(len(values)), lo, hi
}

// ScatterMap renders normalized (x, y) points onto a width×height character
// grid — the text analog of the paper's camera-location map (Fig. 2). y
// grows downward on screen, so callers pass y already flipped if they want
// north-up.
func ScatterMap(title string, xs, ys []float64, width, height int, marker rune) string {
	if width < 2 {
		width = 40
	}
	if height < 2 {
		height = 15
	}
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = make([]rune, width)
		for j := range grid[i] {
			grid[i][j] = '·'
		}
	}
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	for i := 0; i < n; i++ {
		x, y := xs[i], ys[i]
		if x < 0 || x > 1 || y < 0 || y > 1 {
			continue
		}
		col := int(x * float64(width-1))
		row := int(y * float64(height-1))
		grid[row][col] = marker
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "== %s ==\n", title)
	}
	for _, row := range grid {
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	return b.String()
}

// ConfusionMatrix builds a labeled confusion-matrix table from parallel
// truth/prediction slices over k classes. Rows are truths, columns
// predictions.
func ConfusionMatrix(title string, truths, preds []int, names []string) *Table {
	k := len(names)
	counts := make([][]int, k)
	for i := range counts {
		counts[i] = make([]int, k)
	}
	n := len(truths)
	if len(preds) < n {
		n = len(preds)
	}
	for i := 0; i < n; i++ {
		t, p := truths[i], preds[i]
		if t >= 0 && t < k && p >= 0 && p < k {
			counts[t][p]++
		}
	}
	headers := append([]string{"truth\\pred"}, names...)
	tb := NewTable(title, headers...)
	for i, name := range names {
		row := make([]any, 0, k+1)
		row = append(row, name)
		for j := 0; j < k; j++ {
			row = append(row, counts[i][j])
		}
		tb.AddRow(row...)
	}
	return tb
}
