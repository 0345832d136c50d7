// Package texttab renders aligned text tables and ASCII bar charts for
// the evaluation harness — the paper's figures are bar charts, which a
// terminal reproduces honestly with proportional bars.
package texttab

import (
	"fmt"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
	// RightAlign marks columns rendered flush right (numbers).
	rightAlign map[int]bool
}

// New creates a table with the given header.
func New(header ...string) *Table {
	return &Table{header: header, rightAlign: make(map[int]bool)}
}

// AlignRight marks columns (0-based) as right-aligned.
func (t *Table) AlignRight(cols ...int) *Table {
	for _, c := range cols {
		t.rightAlign[c] = true
	}
	return t
}

// Row appends a row; values are formatted with %v, floats with %.1f.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var sb strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			if t.rightAlign[i] {
				sb.WriteString(strings.Repeat(" ", width[i]-len(c)))
				sb.WriteString(c)
			} else {
				sb.WriteString(c)
				if i < cols-1 {
					sb.WriteString(strings.Repeat(" ", width[i]-len(c)))
				}
			}
		}
		sb.WriteString("\n")
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		total := 0
		for _, w := range width {
			total += w + 2
		}
		sb.WriteString(strings.Repeat("-", total-2) + "\n")
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}

// Bar renders a proportional ASCII bar for a value in [0, max].
func Bar(value, max float64, width int) string {
	if max <= 0 {
		max = 1
	}
	n := int(value/max*float64(width) + 0.5)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// Pct formats a 0..1 score as a percentage string.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
