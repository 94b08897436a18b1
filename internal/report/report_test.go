package report

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func sample() *RunReport {
	r := New("table1", "benchmark", "seconds", "slabs")
	r.Title = "Table 1"
	r.Governor = "default"
	r.Meta = map[string]any{"scale": 0.12}
	r.AddRow("UTS", 12.5, 1)
	r.AddRow("AMG", 30.25, 60)
	return r
}

func TestWriteJSONRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON: %s", buf.String())
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Experiment != "table1" || len(back.Rows) != 2 || back.Rows[1]["benchmark"] != "AMG" {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestWriteCSVHeaderAndOrder(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "benchmark,seconds,slabs" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "UTS,12.5,1" {
		t.Errorf("row = %q", lines[1])
	}
}

func TestWriteTextIncludesTitleAndCells(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "benchmark", "AMG", "60"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDispatchAndNilCells(t *testing.T) {
	r := New("x", "a", "b")
	r.AddRow("v", nil)
	var buf bytes.Buffer
	if err := r.Write(&buf, "csv"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Split(strings.TrimSpace(buf.String()), "\n")[1]; got != "v," {
		t.Errorf("nil cell rendered %q, want empty", got)
	}
	if err := r.Write(&buf, "yaml"); err == nil {
		t.Error("unknown format must error")
	}
	if ValidFormat("yaml") || !ValidFormat("json") || !ValidFormat("") {
		t.Error("ValidFormat misclassifies")
	}
}

func TestAddRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch must panic")
		}
	}()
	New("x", "a", "b").AddRow("only-one")
}

// encodesLikeEncoder requires Encode and WriteJSON to write the bytes
// json.Encoder writes for r after SetIndent("", "  "), or to fail with
// its error and write nothing.
func encodesLikeEncoder(t *testing.T, r *RunReport) {
	t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	wantErr := enc.Encode(r)
	got, err := r.Encode()
	var written bytes.Buffer
	werr := r.WriteJSON(&written)
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() || werr == nil || written.Len() != 0 {
			t.Fatalf("Encode error %v (WriteJSON %v, %d bytes written), json.Encoder's %v", err, werr, written.Len(), wantErr)
		}
	case err != nil || werr != nil:
		t.Fatalf("Encode fails (%v, WriteJSON %v) where json.Encoder writes\n%s", err, werr, want.Bytes())
	case !bytes.Equal(got, want.Bytes()) || !bytes.Equal(written.Bytes(), got):
		t.Fatalf("Encode wrote\n%s\nWriteJSON\n%s\njson.Encoder writes\n%s", got, written.Bytes(), want.Bytes())
	}
}

// named is a cell type the encoder hands to json.MarshalIndent.
type named float64

// TestEncodeMatchesEncodingJSON covers the report shapes the harnesses
// build and the edges of the layout: empty and nil columns and rows, a
// nil row, omitted and present optional fields, and cells the encoder
// writes itself next to ones it hands to encoding/json, nested ones
// included.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	full := sample()
	full.Governors = []string{"default", "cuttlefish"}
	full.Meta["nested"] = map[string]any{"b": []any{1.5, "x", nil, map[string]any{}}, "a": []int{}}
	full.Meta["empty"] = map[string]any{}
	full.AddRow("<tag> & \u2028\u2029", math.Copysign(0, -1), named(2.5))
	full.AddRow(true, float32(0.1), struct{ A, B any }{A: uint8(7), B: []string{"x"}})
	full.AddRow(int64(-3), 1e21, 1e-7)
	nilRow := New("x", "a")
	nilRow.Rows = []Row{nil, {}}
	empty := New("empty")
	empty.Columns, empty.Rows = []string{}, []Row{}
	for _, r := range []*RunReport{sample(), full, nilRow, empty, New("bare")} {
		encodesLikeEncoder(t, r)
	}
}

// FuzzReportEncode holds the encoder to json.Encoder over cell, meta and
// title values; a NaN or ±Inf cell must stay an error.
func FuzzReportEncode(f *testing.F) {
	f.Add("UTS", "seconds", 12.5, int64(60), true)
	f.Add("<a> & \u2028\u2029", "k\x00\x1f\"\\", math.Copysign(0, -1), int64(-1), false)
	f.Add("\xff\xfe\xc3", "", 1e21, int64(math.MinInt64), true)
	f.Add("x", "y", 1e-6, int64(0), false)
	f.Add("x", "y", 9.999e-7, int64(1), false)
	f.Add("x", "y", math.NaN(), int64(2), true)
	f.Add("x", "y", math.Inf(-1), int64(3), true)
	f.Fuzz(func(t *testing.T, text, key string, x float64, n int64, flag bool) {
		r := New(text, key, "f", "i", "b", "nil", "nested")
		r.Title, r.Governor, r.Governors = text, key, []string{text, key}
		r.Meta = map[string]any{key: x, text: n, "flag": flag}
		r.AddRow(text, x, int(n), flag, nil, []any{x, text, map[string]any{key: n}})
		r.AddRow(key, float32(x), n, named(x), "", map[string]any{})
		encodesLikeEncoder(t, r)
		if _, err := r.Encode(); (err != nil) != (math.IsNaN(x) || math.IsInf(x, 0)) {
			t.Fatalf("Encode error %v for the float %v", err, x)
		}
	})
}
