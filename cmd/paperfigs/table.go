package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"clustersim/internal/simtime"
)

// table is one artifact: what paperfigs prints and what -csv writes come
// from the same rows.
type table struct {
	// title, when set, heads the table as a new underlined section.
	title string
	// file is the table's CSV file name under the -csv directory.
	file string
	// lead and note are printed verbatim before the header and after the
	// last row (charts, remarks); neither reaches the CSV.
	lead, note string
	columns    []column
	rows       [][]cell // one cell per column
}

// column describes one column in both renderings.
type column struct {
	header string // text header; "" keeps the column out of the text table
	csv    string // CSV header; "" keeps it out of the file
	// width pads the text rendering, right-aligned, or left-aligned when
	// negative (fmt's %*s).
	width int
	// group says the rows come in runs of equal value in this column. The
	// text rendering sets the runs apart with a blank line, and a group
	// column without a header becomes each run's heading, above a header
	// line of its own.
	group bool
}

// col is a column over rows of type T: the column and how a row spells it.
type col[T any] struct {
	column
	of func(T) cell
}

// colOf is a plain column over T.
func colOf[T any](header, csv string, width int, of func(T) cell) col[T] {
	return col[T]{column{header: header, csv: csv, width: width}, of}
}

// grouped marks the column as the one the rows come grouped by.
func (c col[T]) grouped() col[T] {
	c.group = true
	return c
}

// tabulate fills t with one row per element of rows.
func tabulate[T any](t table, rows []T, cols ...col[T]) table {
	for _, c := range cols {
		t.columns = append(t.columns, c.column)
	}
	for _, r := range rows {
		row := make([]cell, len(cols))
		for i, c := range cols {
			row[i] = c.of(r)
		}
		t.rows = append(t.rows, row)
	}
	return t
}

// cell is one value in its two spellings: rounded with its unit for people,
// six significant digits for programs.
type cell struct{ text, csv string }

func f64(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func str(s string) cell { return cell{s, s} }

func count(n int) cell { return str(strconv.Itoa(n)) }

// pct is a ratio shown as a percentage.
func pct(v float64) cell { return cell{fmt.Sprintf("%.2f%%", v*100), f64(v)} }

// times is a ratio shown as "12.3x" with prec decimals.
func times(v float64, prec int) cell { return cell{fmt.Sprintf("%.*fx", prec, v), f64(v)} }

// num is a plain quantity shown with prec decimals.
func num(v float64, prec int) cell { return cell{fmt.Sprintf("%.*f", prec, v), f64(v)} }

// dur is a duration, in microseconds in the CSV.
func dur(d simtime.Duration) cell { return cell{d.String(), fmt.Sprintf("%.3f", d.Microseconds())} }

// writeText prints the table the way the command always has: two spaces of
// indent, one space between columns.
func (t table) writeText(w io.Writer) {
	if t.title != "" {
		fmt.Fprintf(w, "\n%s\n%s\n", t.title, strings.Repeat("=", len(t.title)))
	}
	io.WriteString(w, t.lead)
	line := func(text func(i int) string) {
		io.WriteString(w, " ")
		for i, c := range t.columns {
			if c.header != "" {
				fmt.Fprintf(w, " %*s", c.width, text(i))
			}
		}
		fmt.Fprintln(w)
	}
	header := func() { line(func(i int) string { return t.columns[i].header }) }
	group := -1
	for i, c := range t.columns {
		if c.group {
			group = i
		}
	}
	if group < 0 || t.columns[group].header != "" {
		header()
	}
	last := ""
	for _, row := range t.rows {
		if group >= 0 && row[group].csv != last {
			last = row[group].csv
			fmt.Fprintln(w)
			if t.columns[group].header == "" {
				fmt.Fprintf(w, "  %s:\n", row[group].text)
				header()
			}
		}
		line(func(i int) string { return row[i].text })
	}
	io.WriteString(w, t.note)
}

// writeCSV writes the table to dir/t.file, creating dir.
func (t table) writeCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.file))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	record := func(field func(i int) string) {
		var rec []string
		for i, c := range t.columns {
			if c.csv != "" {
				rec = append(rec, field(i))
			}
		}
		w.Write(rec) // the error is sticky: Flush's w.Error reports it
	}
	record(func(i int) string { return t.columns[i].csv })
	for _, row := range t.rows {
		record(func(i int) string { return row[i].csv })
	}
	w.Flush()
	err = w.Error()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
