// Package metrics provides the small statistics and table-formatting
// helpers the experiment harness uses to print paper-style tables.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// BoundedSlowdown returns Feitelson's bounded slowdown of a job:
// max(1, response / max(service, bound)). The bound keeps very short jobs
// from dominating the average with enormous raw slowdowns.
func BoundedSlowdown(response, service, bound float64) float64 {
	den := service
	if den < bound {
		den = bound
	}
	if den <= 0 {
		return 1
	}
	s := response / den
	if s < 1 {
		return 1
	}
	return s
}

// Table accumulates rows and prints them aligned, in the style of the
// paper's tables.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Fprint writes the table to w.
func (t *Table) Fprint(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("-", len(t.Title))); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(t.Headers) > 0 {
		fmt.Fprintln(tw, strings.Join(t.Headers, "\t"))
	}
	for _, row := range t.rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	return tw.Flush()
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Fprint(&b)
	return b.String()
}
