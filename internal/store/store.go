// Package store is the persistent tier of the content-addressed result
// cache: spec hash → canonical report bytes, one file per entry on disk,
// surviving process restarts. The service layer consults it below the
// in-memory LRU and writes every finished execution through, so a
// cfserve restart — or a different cfserve sharing the directory — keeps
// serving byte-identical responses without recomputing anything.
//
// Soundness matches the in-memory cache's contract: the payload is the
// exact canonical byte sequence the original execution produced, stored
// verbatim behind a checksummed header. Reads verify the checksum; any
// file that is truncated, garbled or unreadable is treated as a cache
// miss (and deleted), never as data.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"
)

// magic is the first header token of every object file. The version
// suffix lets a future format change invalidate old files wholesale
// (they would read as misses) instead of misparsing them.
const magic = "cfstore1"

// hashPattern matches the hex SHA-256 names the service layer keys on.
var hashPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ErrBadHash rejects keys that are not lowercase hex SHA-256 names —
// they would escape the object layout.
var ErrBadHash = errors.New("store: key is not a hex sha-256 hash")

// object is one indexed entry: its payload size and the file
// modification time pruning evicts by.
type object struct {
	size  int64
	mtime time.Time
}

// Store is a disk-backed content-addressed map from spec hashes to
// canonical report bytes. All methods are safe for concurrent use; two
// processes may share one directory (writes are atomic renames of
// identical content, so either winner is correct).
type Store struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	index map[string]object
	total int64 // payload bytes currently indexed

	hits     uint64
	misses   uint64
	corrupt  uint64
	evicted  uint64
	writeErr uint64
}

// Open prepares dir (creating it if needed) and scans existing objects
// into the index. maxBytes bounds the total payload size — 0 means
// unbounded; when a Put pushes past the bound, the oldest entries are
// pruned until it fits. Unparseable files found during the scan are
// ignored (they will read as misses and be cleaned lazily).
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, index: make(map[string]object)}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !hashPattern.MatchString(d.Name()) {
			return nil // skip unreadable or foreign files; Get treats them as misses
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		size := info.Size() - int64(headerLen)
		if size < 0 {
			size = 0 // short file; counted approximately, read will be a miss
		}
		s.index[d.Name()] = object{size: size, mtime: info.ModTime()}
		s.total += size
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	// Enforce the bound on pre-existing data too (a restart with a
	// smaller maxBytes, or a sibling instance having grown the shared
	// directory), not just on the next Put.
	s.mu.Lock()
	s.pruneLocked()
	s.mu.Unlock()
	return s, nil
}

// headerLen is the fixed object header size: magic, a space, the hex
// checksum of the payload, a newline.
var headerLen = len(magic) + 1 + sha256.Size*2 + 1

// header renders the object header for a payload.
func header(body []byte) []byte {
	sum := sha256.Sum256(body)
	return []byte(magic + " " + hex.EncodeToString(sum[:]) + "\n")
}

// path returns an object's file path: objects are sharded by the first
// hash byte to keep directories small under large sweeps.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Get returns the payload stored under hash. Any defect — missing file,
// truncated header, checksum mismatch — is a miss; a defective file is
// deleted so the slot is rewritten cleanly by the re-execution.
func (s *Store) Get(hash string) ([]byte, bool) {
	if !hashPattern.MatchString(hash) {
		return nil, false
	}
	raw, err := os.ReadFile(s.path(hash))
	if err != nil {
		s.mu.Lock()
		s.misses++
		s.dropLocked(hash) // index said present but the file is gone
		s.mu.Unlock()
		return nil, false
	}
	body, ok := verify(raw)
	if !ok {
		s.mu.Lock()
		s.corrupt++
		s.misses++
		s.dropLocked(hash)
		s.mu.Unlock()
		os.Remove(s.path(hash))
		return nil, false
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return body, true
}

// Head returns up to n leading payload bytes of the object stored under
// hash, reading no further into the file. It checks the header's shape
// but not the checksum, which covers the whole payload: a caller may use
// the bytes to decide whether to Get the object, never as data. ok is
// false when the object is missing or its header is malformed. Head
// counts nothing and deletes nothing; the Get that follows does both.
func (s *Store) Head(hash string, n int) ([]byte, bool) {
	if !hashPattern.MatchString(hash) || n < 0 {
		return nil, false
	}
	f, err := os.Open(s.path(hash))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	raw, err := io.ReadAll(io.LimitReader(f, int64(headerLen+n)))
	if err != nil || !validHeader(raw) {
		return nil, false
	}
	return raw[headerLen:], true
}

// validHeader reports whether raw starts with a well-formed object
// header (magic, a space, a checksum-sized field, a newline).
func validHeader(raw []byte) bool {
	return len(raw) >= headerLen && string(raw[:len(magic)]) == magic && raw[len(magic)] == ' ' && raw[headerLen-1] == '\n'
}

// verify splits an object file into its payload, checking magic and
// checksum; ok is false for any malformed or tampered file.
func verify(raw []byte) ([]byte, bool) {
	if !validHeader(raw) {
		return nil, false
	}
	want := string(raw[len(magic)+1 : headerLen-1])
	body := raw[headerLen:]
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != want {
		return nil, false
	}
	return body, true
}

// Put stores body under hash atomically: the bytes land in a temp file
// in the same directory and are renamed into place, so a reader (or a
// crash) never observes a partial object. Concurrent writers of the
// same hash each rename their own temp file; content addressing makes
// every winner equivalent.
func (s *Store) Put(hash string, body []byte) error {
	if !hashPattern.MatchString(hash) {
		return fmt.Errorf("%w: %q", ErrBadHash, hash)
	}
	dst := s.path(hash)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		s.countWriteErr()
		return fmt.Errorf("store: put %s: %w", hash, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), "tmp-"+hash[:8]+"-*")
	if err != nil {
		s.countWriteErr()
		return fmt.Errorf("store: put %s: %w", hash, err)
	}
	_, werr := tmp.Write(header(body))
	if werr == nil {
		_, werr = tmp.Write(body)
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), dst)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		s.countWriteErr()
		return fmt.Errorf("store: put %s: %w", hash, werr)
	}
	s.mu.Lock()
	s.dropLocked(hash) // replace, don't double-count
	s.index[hash] = object{size: int64(len(body)), mtime: time.Now()}
	s.total += int64(len(body))
	s.pruneLocked()
	s.mu.Unlock()
	return nil
}

func (s *Store) countWriteErr() {
	s.mu.Lock()
	s.writeErr++
	s.mu.Unlock()
}

// dropLocked removes hash from the index and the byte total; the caller
// holds s.mu and deletes the file itself if needed.
func (s *Store) dropLocked(hash string) {
	if obj, ok := s.index[hash]; ok {
		s.total -= obj.size
		delete(s.index, hash)
	}
}

// pruneLocked evicts oldest-first until the payload total fits
// maxBytes. The newest entry always survives, even if it alone exceeds
// the bound — evicting what was just written would make Put a no-op.
func (s *Store) pruneLocked() {
	if s.maxBytes <= 0 || s.total <= s.maxBytes {
		return
	}
	type aged struct {
		hash string
		object
	}
	entries := make([]aged, 0, len(s.index))
	for h, o := range s.index {
		entries = append(entries, aged{h, o})
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].hash < entries[j].hash // deterministic tie-break
	})
	for _, e := range entries {
		if s.total <= s.maxBytes || len(s.index) == 1 {
			return
		}
		s.dropLocked(e.hash)
		s.evicted++
		os.Remove(s.path(e.hash))
	}
}

// Keys returns the hashes of every indexed object in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for h := range s.index {
		keys = append(keys, h)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the total payload bytes indexed.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Purge deletes every object and resets the index; the directory itself
// survives for subsequent Puts.
func (s *Store) Purge() error {
	s.mu.Lock()
	hashes := make([]string, 0, len(s.index))
	for h := range s.index {
		hashes = append(hashes, h)
	}
	s.index = make(map[string]object)
	s.total = 0
	s.mu.Unlock()
	// Deterministic deletion order so which error surfaces as firstErr
	// does not depend on map iteration order (cfvet: maporder).
	sort.Strings(hashes)
	var firstErr error
	for _, h := range hashes {
		if err := os.Remove(s.path(h)); err != nil && !errors.Is(err, fs.ErrNotExist) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Info is a point-in-time snapshot for the /v1/cache endpoint.
type Info struct {
	Path     string `json:"path"`
	Entries  int    `json:"entries"`
	Bytes    int64  `json:"bytes"`
	MaxBytes int64  `json:"max_bytes,omitempty"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Corrupt  uint64 `json:"corrupt"`
	Evicted  uint64 `json:"evicted"`
	WriteErr uint64 `json:"write_errors"`
}

// Info snapshots the store's size and counters.
func (s *Store) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Info{
		Path:     s.dir,
		Entries:  len(s.index),
		Bytes:    s.total,
		MaxBytes: s.maxBytes,
		Hits:     s.hits,
		Misses:   s.misses,
		Corrupt:  s.corrupt,
		Evicted:  s.evicted,
		WriteErr: s.writeErr,
	}
}
