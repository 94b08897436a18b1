package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/canon"
	"repro/internal/scenario"
)

// canonicalSeeds are spec documents every spec fuzz target starts from.
var canonicalSeeds = []string{
	// The TestCanonicalHashesPinned documents.
	`{"scenario":"bursty","governor":"cuttlefish","scale":0.03,"warmup_sec":0.25,"reps":1,"seed":1234567891}`,
	`{"experiment":"table1"}`,
	`{"scenario_def":{"name":"p","phases":[{"instructions":3e11,"miss_per_instr":0.0005,"ipc":2},{"instructions":1e11,"miss_per_instr":0.004,"ipc":1.6,"remote_frac":0.2}]},"governor":"cuttlefish-uncore","scale":0.05,"seed":7}`,
	`{"benchmark":"SOR-ws","model":"hclib","governor":"powersave"}`,
	// Selector folding: a benchmark named as a scenario, a synthetic
	// scenario named as a benchmark, and every field defaulted.
	`{"scenario":"UTS"}`,
	`{"benchmark":"bursty"}`,
	`{}`,
	// Text the writers must escape, and floats at encoding/json's
	// format cutoffs and signs.
	`{"scenario_def":{"name":"<a> & \u2028\u2029","description":"\u0000\b\f\n\r\t\u001f\"\\\u007f","phases":[{"name":"\ufffd","instructions":1e21,"miss_per_instr":1e-6,"ipc":9.99e-7,"remote_frac":-0,"exposure":-0,"jitter_frac":0.1,"miss_jitter":1e-7}]},"scale":-0,"warmup_sec":-1e21}`,
	`{"scenario_def":{"name":"e","iterations":2,"phases":[]},"cores":-3,"reps":0,"seed":-9223372036854775808}`,
}

// fuzzText and fuzzFloat pair with each seed document as the free text
// and the float FuzzSpecCanonical writes into every field.
var (
	fuzzText  = []string{"<>&", "\u2028\u2029", "\xff\xfe bad \xc3", "\x00\x01\x1f\x7f", "plain", "", "\u00e9 ok"}
	fuzzFloat = []float64{1e-6, 1e21, math.Copysign(0, -1), 9.999999e-7, 1e20, 123.456, math.NaN()}
)

// FuzzSpecCanonical feeds arbitrary spec documents through the canonical
// form every cache tier keys on. For any document that decodes, the
// canonical bytes are json.Marshal of the normalized spec, normalizing
// twice yields the canonical bytes of normalizing once, the hash ignores
// whether the spec was normalized first, Validate returns instead of
// panicking, and a valid spec's canonical bytes decode back strictly to
// the same hash — so a canonical spec sent over the wire names the same
// run. Separately, a spec with text in every free-text field and x in
// every float field, valid or not, must write the bytes (or the error)
// json.Marshal does.
func FuzzSpecCanonical(f *testing.F) {
	for i, doc := range canonicalSeeds {
		f.Add([]byte(doc), fuzzText[i%len(fuzzText)], fuzzFloat[i%len(fuzzFloat)])
	}
	f.Fuzz(func(t *testing.T, raw []byte, text string, x float64) {
		writesLikeMarshal(t, textSpec(text, x))
		s, err := decodeSpec(raw)
		if err != nil {
			return
		}
		writesLikeMarshal(t, s)
		n := s.Normalized()
		want, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshal normalized spec: %v", err)
		}
		if got := s.Canonical(); !bytes.Equal(got, want) {
			t.Fatalf("canonical bytes are not json.Marshal of the normalized spec:\ngot  %s\nwant %s", got, want)
		}
		if twice := n.Canonical(); !bytes.Equal(want, twice) {
			t.Fatalf("Normalized is not idempotent:\nonce  %s\ntwice %s", want, twice)
		}
		if s.Hash() != n.Hash() {
			t.Fatalf("hash depends on normalizing first: %s vs %s", s.Hash(), n.Hash())
		}
		_ = s.Validate() // the raw spec is never run, but must not panic either
		if n.Validate() != nil {
			return
		}
		back, err := decodeSpec(s.Canonical())
		if err != nil {
			t.Fatalf("canonical bytes %s do not decode strictly: %v", s.Canonical(), err)
		}
		if back.Hash() != s.Hash() {
			t.Fatalf("canonical bytes %s decode to hash %s, want %s", s.Canonical(), back.Hash(), s.Hash())
		}
	})
}

// textSpec puts text in every string field of a spec, at every level,
// and x in every float field.
func textSpec(text string, x float64) Spec {
	exposure := x
	return Spec{
		Experiment: text, Benchmark: text, Scenario: text, Governor: text, Model: text,
		Scale: x, TinvSec: x, WarmupSec: x, Cores: 1, Reps: -1, Seed: math.MinInt64,
		ScenarioDef: &scenario.Definition{Name: text, Description: text, Decomposition: text, Iterations: 3,
			Phases: []scenario.PhaseDef{
				{Name: text, Instructions: x, MissPerInstr: x, IPC: x, RemoteFrac: x, Exposure: &exposure,
					ChunksPerCore: 2, JitterFrac: x, MissJitter: x, Repeat: 4},
				{},
			}},
	}
}

// writesLikeMarshal requires s.WriteJSON to write json.Marshal's bytes,
// or to fail with its error.
func writesLikeMarshal(t *testing.T, s Spec) {
	t.Helper()
	want, wantErr := json.Marshal(s)
	var w canon.JSONWriter
	s.WriteJSON(&w)
	switch {
	case wantErr != nil:
		if w.Err == nil || w.Err.Error() != wantErr.Error() {
			t.Fatalf("WriteJSON error %v, json.Marshal's %v", w.Err, wantErr)
		}
	case w.Err != nil:
		t.Fatalf("WriteJSON fails (%v) where json.Marshal writes %s", w.Err, want)
	case !bytes.Equal(w.B, want):
		t.Fatalf("WriteJSON wrote\n%s\njson.Marshal writes\n%s", w.B, want)
	}
}

// FuzzParseSpec holds ParseSpec's hand-written reader to encoding/json:
// a body the reader accepts decodes with encoding/json to a deeply equal
// spec (nil and empty phases, and a nil and a set exposure, are
// different values) with the same canonical bytes, and ParseSpec returns
// exactly what encoding/json does, error included.
func FuzzParseSpec(f *testing.F) {
	for _, doc := range canonicalSeeds {
		f.Add([]byte(doc))
	}
	for _, doc := range []string{
		" \t\n{\"reps\":2}\r\n ",                    // whitespace around the object
		`{"reps":2}{"reps":3}`,                      // trailing data
		`{"reps":2} x`,                              // trailing garbage
		`{"reps":2,"reps":3}`,                       // a repeated field
		`{"Reps":2}`,                                // a case-folded name
		`{"r\u0065ps":2}`,                           // an escaped name
		`{"typo":1}`,                                // an unknown field
		`{"reps":2.0}`,                              // a fraction in an int field
		`{"reps":1e2}`,                              // an exponent in an int field
		`{"reps":-0,"seed":-1,"scale":-0.0}`,        // negative zeros
		`{"scale":1e400}`,                           // out of range
		`{"seed":9223372036854775808}`,              // overflow
		`{"scale":01}`,                              // a leading zero
		`{"scale":.5}`,                              // no integer part
		`{"scale":1.}`,                              // an empty fraction
		`{"scale":null}`,                            // null
		`{"scenario_def":null}`,                     // null object
		`{"governor":true}`,                         // a literal
		`{"governor":"a\nb"}`,                       // an escape
		"{\"governor\":\"a\tb\"}",                   // a raw control byte
		"{\"governor\":\"\xff\"}",                   // invalid UTF-8
		"{\"governor\":\"\u00e9\u2028<&>\"}",        // raw UTF-8 and HTML-sensitive bytes
		`{"scenario_def":{"name":"x","phases":[]}}`, // empty phases
		`{"scenario_def":{"name":"x"}}`,             // absent phases
		`{"scenario_def":{"name":"x","phases":[{"exposure":0},{}]}}`, // set and absent exposure
		`{"scenario_def":{"name":"x","phases":[{"ipc":1,},{}]}}`,     // a trailing comma
		`{"scenario_def":{"name":"x","phases":[{"ipc":1}{}]}}`,       // a missing comma
		`{"scenario_def":{"name":"x","phases":[{"ipc":1,"ipc":2}]}}`, // a repeated phase field
		`{"scenario_def":{"name":"x","phases":{}}}`,                  // an object for an array
		`{"reps":2`, // truncated
		``,          // empty
		`[]`,        // not an object
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := decodeSpec(body)
		if fast, ok := parsePlainSpec(body); ok {
			if wantErr != nil {
				t.Fatalf("the reader accepts %q, which encoding/json rejects: %v", body, wantErr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("the reader reads %q as\n%#v\nencoding/json as\n%#v", body, fast, want)
			}
			if a, b := canonicalOrErr(fast), canonicalOrErr(want); a != b {
				t.Fatalf("the reader's spec writes %s, encoding/json's %s", a, b)
			}
		}
		got, err := ParseSpec(body)
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("ParseSpec(%q) error %v, encoding/json's %v", body, err, wantErr)
			}
		case err != nil:
			t.Fatalf("ParseSpec(%q) fails (%v) where encoding/json decodes", body, err)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("ParseSpec(%q) =\n%#v\nencoding/json decodes\n%#v", body, got, want)
		}
	})
}

// canonicalOrErr is the spec's written bytes, or its write error.
func canonicalOrErr(s Spec) string {
	var w canon.JSONWriter
	s.WriteJSON(&w)
	if w.Err != nil {
		return w.Err.Error()
	}
	return string(w.B)
}

// TestPlainReaderTakesEncoderOutput: json.Marshal's bytes for a spec
// whose strings need no escaping, canonical or not, are in the
// hand-written reader's subset, so a client that marshals its spec never
// sends the server down the encoding/json path.
func TestPlainReaderTakesEncoderOutput(t *testing.T) {
	for _, name := range scenario.Names() {
		specs := []Spec{{Benchmark: name, Governor: "cuttlefish", Scale: 0.05, Seed: 7}}
		if e, _ := scenario.Get(name); e.Def != nil {
			specs = append(specs, Spec{ScenarioDef: e.Def, WarmupSec: 0.25, Reps: 1})
		}
		for _, s := range specs {
			raw, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, doc := range [][]byte{raw, s.Canonical()} {
				if _, ok := parsePlainSpec(doc); !ok {
					t.Errorf("the reader sends %s to encoding/json", doc)
				}
			}
		}
	}
}
