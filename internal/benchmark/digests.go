package benchmark

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// DigestSeed is the seed the recorded stream digests are taken at.
const DigestSeed = 1

// digestCount is how many requests of each stream are pinned.
const digestCount = 16

//go:embed digests.json
var recordedDigests []byte

// StreamDigests returns the SHA-256 of the first request bodies of the
// workload's measured stream at DigestSeed.
func StreamDigests(w Workload) []string {
	p := w.plan(DigestSeed)
	out := make([]string, digestCount)
	for i := range out {
		sum := sha256.Sum256(p.next(i).body)
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

// CheckDigests compares the workload's stream against the digests
// recorded in digests.json and returns one message per mismatch: a
// mismatch means the same seed no longer gives the same inputs.
func CheckDigests(w Workload) ([]string, error) {
	var recorded map[string][]string
	if err := json.Unmarshal(recordedDigests, &recorded); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	want := recorded[w.Name]
	var bad []string
	for i, got := range StreamDigests(w) {
		if i >= len(want) || want[i] != got {
			bad = append(bad, fmt.Sprintf("%s: request %d of the seed-%d stream no longer matches its recorded digest", w.Name, i, DigestSeed))
		}
	}
	return bad, nil
}
