package main

import (
	"fmt"
	"io"
	"strings"
)

// table renders one experiment's results as aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

// Row appends a row; floats print with two decimals, the rest with %v.
func (t *table) Row(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		if x, ok := v.(float64); ok {
			row[i] = fmt.Sprintf("%.2f", x)
		} else {
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Write renders the header, a dashed separator and the rows.
func (t *table) Write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = c
			if i < len(widths) && len(c) < widths[i] {
				parts[i] += strings.Repeat(" ", widths[i]-len(c))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}
