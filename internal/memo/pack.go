package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
)

// A pack is the disk tier's one store object per executed run:
//
//	"cfpack1\n"                    magic
//	count     uint32               entries
//	count × { key [32]byte, len uint32 }   the key table
//	bodies                         concatenated in table order
//
// The key table comes first so the index can be built from a bounded
// read of each pack's head. The store's header checksums the whole
// pack; only Get's full read verifies it.
const packMagic = "cfpack1\n"

// packKey is a raw snapshot key: the SHA-256 digest its hex key names.
type packKey = [sha256.Size]byte

const (
	packFixedLen = len(packMagic) + 4
	packRowLen   = sha256.Size + 4
	// packHeadGuess is the first read of an index load: the key table of
	// any pack of up to 64 snapshots (a run stores at most 32), so one
	// read per pack suffices in practice.
	packHeadGuess = packFixedLen + 64*packRowLen
)

var (
	errBadPack    = errors.New("memo: malformed snapshot pack")
	errShortTable = errors.New("memo: read ends inside a pack's key table")
)

// Entry is one snapshot: its hex prefix-chain key and its bytes.
type Entry struct {
	Key  string
	Body []byte
}

// rawKey decodes a hex snapshot key; ok is false for any key that is not
// a hex SHA-256 digest (such keys stay in memory only).
func rawKey(key string) (k packKey, ok bool) {
	if len(key) != 2*len(k) {
		return k, false
	}
	_, err := hex.Decode(k[:], []byte(key))
	return k, err == nil
}

// encodePack lays out one pack and names it by the SHA-256 of its key
// table. A key's bytes are a pure function of the key, so equal tables
// mean equal packs.
func encodePack(keys []packKey, bodies [][]byte) (name string, pack []byte) {
	size := packFixedLen + len(keys)*packRowLen
	for _, b := range bodies {
		size += len(b)
	}
	pack = make([]byte, 0, size)
	pack = append(pack, packMagic...)
	pack = binary.BigEndian.AppendUint32(pack, uint32(len(keys)))
	for i, k := range keys {
		pack = append(pack, k[:]...)
		pack = binary.BigEndian.AppendUint32(pack, uint32(len(bodies[i])))
	}
	sum := sha256.Sum256(pack)
	for _, b := range bodies {
		pack = append(pack, b...)
	}
	return hex.EncodeToString(sum[:]), pack
}

// parseTable parses the key table at the front of b: the keys, their
// body lengths and the table's size in bytes. When b holds the count but
// not the whole table, it returns errShortTable with size set, so the
// caller can read that many bytes and parse again.
func parseTable(b []byte) (keys []packKey, lens []int, size int, err error) {
	if len(b) < packFixedLen || string(b[:len(packMagic)]) != packMagic {
		return nil, nil, 0, errBadPack
	}
	count := int(binary.BigEndian.Uint32(b[len(packMagic):]))
	size = packFixedLen + count*packRowLen
	if size > len(b) {
		return nil, nil, size, errShortTable
	}
	keys, lens = make([]packKey, count), make([]int, count)
	for i := range keys {
		row := b[packFixedLen+i*packRowLen:]
		copy(keys[i][:], row)
		lens[i] = int(binary.BigEndian.Uint32(row[sha256.Size:]))
	}
	return keys, lens, size, nil
}

// decodePack splits a whole pack into its keys and bodies; the bodies
// alias pack. Any defect — truncation, a length past the end, trailing
// bytes — is an error.
func decodePack(pack []byte) (keys []packKey, bodies [][]byte, err error) {
	keys, lens, off, err := parseTable(pack)
	if err != nil {
		return nil, nil, errBadPack
	}
	bodies = make([][]byte, len(keys))
	for i, n := range lens {
		if n > len(pack)-off {
			return nil, nil, errBadPack
		}
		bodies[i] = pack[off : off+n : off+n]
		off += n
	}
	if off != len(pack) {
		return nil, nil, errBadPack
	}
	return keys, bodies, nil
}
