// Package stats provides the numeric helpers and text renderers the
// experiment harness uses to produce paper-style tables and figures:
// geometric means, normalized ratios, aligned ASCII tables, horizontal
// bar "figures", and CSV output.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Geomean returns the geometric mean of vs; it returns 0 for an empty
// slice and panics on non-positive values (normalized ratios are always
// positive).
func Geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			panic(fmt.Sprintf("stats: geomean of non-positive value %f", v))
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// Table renders aligned text tables.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
}

// NewTable builds a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; short rows are padded with empty cells. Rows
// longer than the header panic — silently dropping the overflow cells
// would lose experiment data with no error.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Header) {
		panic(fmt.Sprintf("stats: row of %d cells exceeds %d-column header of table %q",
			len(cells), len(t.Header), t.Title))
	}
	row := make([]string, len(t.Header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Render produces the aligned text form.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// Figure renders grouped horizontal bars — the text equivalent of the
// paper's grouped bar charts (one group per workload, one bar per
// design).
type Figure struct {
	Title  string
	XLabel string
	groups []figGroup
}

type figGroup struct {
	label string
	bars  []figBar
}

type figBar struct {
	name  string
	value float64
}

// NewFigure builds an empty figure.
func NewFigure(title, xlabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel}
}

// AddGroup appends one labelled group of (name, value) bars. Call with
// matching name order across groups.
func (f *Figure) AddGroup(label string, names []string, values []float64) {
	g := figGroup{label: label}
	for i, n := range names {
		g.bars = append(g.bars, figBar{name: n, value: values[i]})
	}
	f.groups = append(f.groups, g)
}

// Render draws the figure with bars scaled to the maximum value.
func (f *Figure) Render() string {
	const width = 44
	maxVal := 0.0
	nameW, labelW := 0, 0
	for _, g := range f.groups {
		if len(g.label) > labelW {
			labelW = len(g.label)
		}
		for _, b := range g.bars {
			if b.value > maxVal && !math.IsInf(b.value, 1) {
				maxVal = b.value
			}
			if len(b.name) > nameW {
				nameW = len(b.name)
			}
		}
	}
	if maxVal == 0 {
		maxVal = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	if f.XLabel != "" {
		fmt.Fprintf(&b, "(%s; bar scale: %.3g = full width)\n", f.XLabel, maxVal)
	}
	for _, g := range f.groups {
		fmt.Fprintf(&b, "%-*s\n", labelW, g.label)
		for _, bar := range g.bars {
			n := 0
			v := bar.value
			if math.IsInf(v, 1) {
				n = width
			} else {
				n = int(math.Round(v / maxVal * width))
			}
			if n > width {
				n = width
			}
			fmt.Fprintf(&b, "  %-*s %6.3f |%s\n", nameW, bar.name, bar.value, strings.Repeat("#", n))
		}
	}
	return b.String()
}

// FormatCount renders large counts compactly (12.3M, 4.5K).
func FormatCount(v uint64) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.2fG", float64(v)/1e9)
	case v >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.1fK", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}
