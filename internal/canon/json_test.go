package canon

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestJSONFloatMatchesEncodingJSON holds Float to json.Marshal's bytes
// where its shortcuts and cutoffs sit: integral values up to and past
// 2^53, the 1e-6 and 1e21 exponent cutoffs, both zeros, and seeded draws
// of integers and of arbitrary bit patterns.
func TestJSONFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 2, 0.5, 1e-6, 9.99999e-7, 1e-7, 1e21, 9.99999e20,
		1e20, 1 << 53, 1<<53 - 1, 1<<53 + 2, -(1<<53 - 1), 3e11, 123456789012345, 5e-324, math.MaxFloat64}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		vals = append(vals, math.Trunc(r.Float64()*math.Ldexp(1, r.Intn(64))), math.Float64frombits(r.Uint64()))
	}
	for _, f := range vals {
		want, err := json.Marshal(f)
		var w JSONWriter
		w.Float(f)
		if (err != nil) != (w.Err != nil) || err == nil && !bytes.Equal(w.B, want) {
			t.Fatalf("Float(%v) wrote %s (error %v), json.Marshal %s (error %v)", f, w.B, w.Err, want, err)
		}
	}
}
