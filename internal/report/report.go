// Package report is the structured output layer behind every CLI
// subcommand: each experiment harness produces one RunReport — a titled,
// column-ordered row set plus metadata — which renders as an aligned text
// table, a JSON document or CSV, so downstream tooling never scrapes the
// pretty-printed output.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/canon"
)

// Row is one record keyed by the report's column names.
type Row map[string]any

// RunReport is the JSON-encodable result of one experiment invocation.
type RunReport struct {
	// Experiment is the subcommand that produced the report.
	Experiment string `json:"experiment"`
	// Title is the human heading the text renderer prints.
	Title string `json:"title,omitempty"`
	// Governor and Governors record which registered strategies ran.
	Governor  string   `json:"governor,omitempty"`
	Governors []string `json:"governors,omitempty"`
	// Meta echoes the run options that shape the numbers (scale, reps, …).
	Meta map[string]any `json:"meta,omitempty"`
	// Columns orders the row keys for CSV and text rendering.
	Columns []string `json:"columns"`
	Rows    []Row    `json:"rows"`
}

// New starts an empty report for the named experiment.
func New(experiment string, columns ...string) *RunReport {
	return &RunReport{Experiment: experiment, Columns: columns}
}

// AddRow appends one record; cells pair positionally with Columns.
func (r *RunReport) AddRow(cells ...any) *RunReport {
	if len(cells) != len(r.Columns) {
		panic(fmt.Sprintf("report: %s row has %d cells, want %d", r.Experiment, len(cells), len(r.Columns)))
	}
	row := make(Row, len(cells))
	for i, c := range cells {
		row[r.Columns[i]] = c
	}
	r.Rows = append(r.Rows, row)
	return r
}

// WriteJSON renders the report as an indented JSON document: Encode's
// bytes. Nothing is written when encoding fails.
func (r *RunReport) WriteJSON(w io.Writer) error {
	data, err := r.Encode()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Encode renders the report in its canonical byte form: exactly the
// document json.Encoder writes for it after SetIndent("", "  "), final
// newline included, written by hand. Map keys are sorted, so two
// structurally equal reports encode byte-identically — the property the
// service layer's content-addressed cache relies on to serve cached and
// freshly computed responses that compare equal byte for byte. A cell
// of a type the encoder does not write itself (any but nil, bool,
// string, int, int64 and float64) goes to json.MarshalIndent at the
// cell's depth. A NaN or ±Inf float fails with encoding/json's error.
func (r *RunReport) Encode() ([]byte, error) {
	e := &encoder{w: canon.JSONWriter{B: make([]byte, 0, 1024)}}
	e.open('{')
	e.key("experiment")
	e.w.String(r.Experiment)
	if r.Title != "" {
		e.key("title")
		e.w.String(r.Title)
	}
	if r.Governor != "" {
		e.key("governor")
		e.w.String(r.Governor)
	}
	if len(r.Governors) > 0 {
		e.key("governors")
		e.strings(r.Governors)
	}
	if len(r.Meta) > 0 {
		e.key("meta")
		e.object(r.Meta)
	}
	e.key("columns")
	e.strings(r.Columns)
	e.key("rows")
	if r.Rows == nil {
		e.w.Raw("null")
	} else {
		e.open('[')
		for _, row := range r.Rows {
			e.member()
			e.object(row)
		}
		e.close(']')
	}
	e.close('}')
	e.w.Raw("\n")
	if e.w.Err != nil {
		return nil, e.w.Err
	}
	return e.w.B, nil
}

// encoder lays JSON out as json.Encoder does after SetIndent("", "  "):
// each member of a non-empty object or array on a line of its own, two
// spaces deeper than its container's, and "key": value.
type encoder struct {
	w     canon.JSONWriter
	depth int
	keys  []string // the object being written's sorted keys, reused
}

// open starts an object or array.
func (e *encoder) open(c byte) {
	e.w.B = append(e.w.B, c)
	e.depth++
}

// member starts the next member of the open object or array.
func (e *encoder) member() {
	if last := e.w.B[len(e.w.B)-1]; last != '{' && last != '[' {
		e.w.B = append(e.w.B, ',')
	}
	e.newline()
}

// key starts the next member of the open object.
func (e *encoder) key(k string) {
	e.member()
	e.w.String(k)
	e.w.Raw(": ")
}

// close ends the open object or array with c; an empty one stays {} or [].
func (e *encoder) close(c byte) {
	e.depth--
	if last := e.w.B[len(e.w.B)-1]; last != '{' && last != '[' {
		e.newline()
	}
	e.w.B = append(e.w.B, c)
}

func (e *encoder) newline() {
	e.w.B = append(e.w.B, '\n')
	for range e.depth {
		e.w.B = append(e.w.B, "  "...)
	}
}

func (e *encoder) strings(ss []string) {
	if ss == nil {
		e.w.Raw("null")
		return
	}
	e.open('[')
	for _, s := range ss {
		e.member()
		e.w.String(s)
	}
	e.close(']')
}

// object writes m with its keys in sorted order, as encoding/json does.
func (e *encoder) object(m map[string]any) {
	if m == nil {
		e.w.Raw("null")
		return
	}
	keys := e.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.open('{')
	for _, k := range keys {
		e.key(k)
		e.value(m[k])
	}
	e.close('}')
	e.keys = keys
}

// value writes one cell. No case writes an object, so object's reuse of
// e.keys never nests.
func (e *encoder) value(v any) {
	switch x := v.(type) {
	case nil:
		e.w.Raw("null")
	case bool:
		e.w.Raw(strconv.FormatBool(x))
	case string:
		e.w.String(x)
	case int:
		e.w.Int(int64(x))
	case int64:
		e.w.Int(x)
	case float64:
		e.w.Float(x)
	default:
		data, err := json.MarshalIndent(x, strings.Repeat("  ", e.depth), "  ")
		if err != nil && e.w.Err == nil {
			e.w.Err = err
		}
		e.w.B = append(e.w.B, data...)
	}
}

// Decode parses a JSON document produced by WriteJSON/Encode back into a
// RunReport (numbers in Rows decode as float64, per encoding/json). The
// remote client uses it to re-render server responses in any -format.
func Decode(data []byte) (*RunReport, error) {
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("report: decode: %w", err)
	}
	return &r, nil
}

// Floats extracts one numeric column in row order. It accepts both
// in-process reports (typed cells) and Decode'd ones (every number a
// float64, per encoding/json), so consumers like the fuzz differ read
// metrics identically whether a run executed locally or arrived as
// canonical bytes from a backend. Unknown columns and non-numeric cells
// are errors — silently reading zeros would fabricate metrics.
func (r *RunReport) Floats(col string) ([]float64, error) {
	known := false
	for _, c := range r.Columns {
		if c == col {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("report: %s has no column %q (columns: %v)", r.Experiment, col, r.Columns)
	}
	out := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		switch v := row[col].(type) {
		case float64:
			out[i] = v
		case float32:
			out[i] = float64(v)
		case int:
			out[i] = float64(v)
		case int64:
			out[i] = float64(v)
		default:
			return nil, fmt.Errorf("report: %s row %d column %q is %T, not numeric", r.Experiment, i, col, row[col])
		}
	}
	return out, nil
}

// WriteCSV renders the header and rows in column order.
func (r *RunReport) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Columns); err != nil {
		return err
	}
	rec := make([]string, len(r.Columns))
	for _, row := range r.Rows {
		for i, col := range r.Columns {
			rec[i] = formatCell(row[col])
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteText renders the title and an aligned column table.
func (r *RunReport) WriteText(w io.Writer) error {
	if r.Title != "" {
		if _, err := fmt.Fprintln(w, r.Title); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(r.Columns, "\t"))
	for _, row := range r.Rows {
		cells := make([]string, len(r.Columns))
		for i, col := range r.Columns {
			cells[i] = formatCell(row[col])
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	return tw.Flush()
}

// Write renders the report in the named format: "text", "json" or "csv".
func (r *RunReport) Write(w io.Writer, format string) error {
	switch format {
	case "", "text":
		return r.WriteText(w)
	case "json":
		return r.WriteJSON(w)
	case "csv":
		return r.WriteCSV(w)
	default:
		return fmt.Errorf("report: unknown format %q (want text, json or csv)", format)
	}
}

// ValidFormat reports whether format names a supported renderer.
func ValidFormat(format string) bool {
	switch format {
	case "", "text", "json", "csv":
		return true
	}
	return false
}

// formatCell renders one cell for CSV/text output. Floats use a compact
// 5-significant-digit form; nil renders empty (e.g. a geomean row's CI).
func formatCell(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case float64:
		return strconv.FormatFloat(x, 'g', 5, 64)
	case fmt.Stringer:
		return x.String()
	default:
		return fmt.Sprint(x)
	}
}
