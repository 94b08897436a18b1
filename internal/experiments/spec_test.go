package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeSpec decodes one spec document the way POST /v1/runs does:
// strictly, so an unknown field is an error rather than a dropped knob.
func decodeSpec(raw []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err := dec.Decode(&s)
	return s, err
}

// FuzzSpecCanonical feeds arbitrary spec documents through the canonical
// form every cache tier keys on. For any document that decodes,
// normalizing twice yields the canonical bytes of normalizing once, the
// hash ignores whether the spec was normalized first, Validate returns
// instead of panicking, and a valid spec's canonical bytes decode back
// strictly to the same hash — so a canonical spec sent over the wire
// names the same run.
func FuzzSpecCanonical(f *testing.F) {
	for _, doc := range []string{
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
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := decodeSpec(raw)
		if err != nil {
			return
		}
		n := s.Normalized()
		once, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshal normalized spec: %v", err)
		}
		if twice := n.Canonical(); !bytes.Equal(once, twice) {
			t.Fatalf("Normalized is not idempotent:\nonce  %s\ntwice %s", once, twice)
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
