package memo_test

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"repro/internal/experiments"
	"repro/internal/memo"
	"repro/internal/scenario"
	"repro/internal/store"
)

// burstyPack runs the bursty scenario once over a disk-backed tier and
// returns the one pack the run wrote.
func burstyPack(f *testing.F) []byte {
	f.Helper()
	st, err := store.Open(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	e, ok := scenario.Get("bursty")
	if !ok {
		f.Fatal("scenario bursty is not registered")
	}
	opt := experiments.DefaultOptions()
	opt.Scale = 0.02
	opt.Reps = 1
	opt.Memo = memo.New(0, st)
	if _, err := experiments.RunEntry(e, "cuttlefish", opt, 1); err != nil {
		f.Fatal(err)
	}
	names := st.Keys()
	if len(names) != 1 {
		f.Fatalf("bursty run left %d store objects, want one pack", len(names))
	}
	pack, ok := st.Get(names[0])
	if !ok {
		f.Fatal("bursty run's pack does not read back")
	}
	return pack
}

// FuzzDecodePack feeds arbitrary bytes to the pack decoders, which read
// what the disk tier hands back: the key-table parse and the full decode
// each return an error or well-formed entries, never a panic, and a
// decoded pack re-encodes to the same bytes. The input, cut into
// bodies, also round-trips encode → decode.
func FuzzDecodePack(f *testing.F) {
	pack := burstyPack(f)
	f.Add(pack)
	f.Add(pack[:len(pack)-1])
	f.Add(pack[:200])
	_, empty := memo.EncodePack(nil, nil)
	f.Add(empty)
	f.Add([]byte("cfmemo1\n not a pack"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		memo.ParseTable(raw) // a head may hold any prefix: only a panic fails
		if keys, bodies, err := memo.DecodePack(raw); err == nil {
			if len(keys) != len(bodies) {
				t.Fatalf("decoded %d keys but %d bodies", len(keys), len(bodies))
			}
			if _, again := memo.EncodePack(keys, bodies); !bytes.Equal(again, raw) {
				t.Fatal("a decoded pack does not re-encode to its own bytes")
			}
			table, _, _, err := memo.ParseTable(raw)
			if err != nil || len(table) != len(keys) {
				t.Fatalf("key table = %d keys, %v; the full decode found %d", len(table), err, len(keys))
			}
			for i := range keys {
				if table[i] != keys[i] {
					t.Fatalf("key table row %d differs from the full decode", i)
				}
			}
		}

		var keys [][sha256.Size]byte
		var bodies [][]byte
		for rest := raw; len(rest) > 0; {
			n := 1 + int(rest[0])%len(rest)
			keys = append(keys, sha256.Sum256(rest[:n]))
			bodies = append(bodies, rest[:n])
			rest = rest[n:]
		}
		name, packed := memo.EncodePack(keys, bodies)
		gotKeys, gotBodies, err := memo.DecodePack(packed)
		if err != nil || len(gotKeys) != len(keys) {
			t.Fatalf("encoded pack %s decodes to %d keys, %v; want %d", name[:8], len(gotKeys), err, len(keys))
		}
		for i := range keys {
			if gotKeys[i] != keys[i] || !bytes.Equal(gotBodies[i], bodies[i]) {
				t.Fatalf("entry %d does not round-trip", i)
			}
		}
	})
}
