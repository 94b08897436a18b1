// Package store is the persistent tier of the content-addressed result
// cache: spec hash → canonical report bytes, surviving process restarts.
// The service layer consults it below the in-memory LRU and writes every
// finished execution through, so a cfserve restart — or a different
// cfserve sharing the directory — keeps serving byte-identical responses
// without recomputing anything.
//
// On disk a store is a set of append-only segment files. Each open Store
// appends checksummed records to one segment it holds an exclusive lock
// on, and an in-memory index maps every key to its newest record. Opening
// a store scans record headers only; a Get reads one record and verifies
// its checksum, so a truncated, garbled or unreadable record is a cache
// miss, never data. Records other processes append become visible on the
// next index miss.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// magic is the first header token of every record. The version suffix
// lets a format change invalidate old segments wholesale (their scan ends
// at the first record) instead of misparsing them.
const magic = "cfstore2"

// headerLen is the fixed record header size: magic, the key, the
// sequence number and payload length as 16 hex digits each, and the hex
// SHA-256 of the payload, separated by spaces and ended by a newline.
const headerLen = len(magic) + 1 + 64 + 1 + 16 + 1 + 16 + 1 + 64 + 1

// Field offsets inside a header.
const (
	keyAt  = len(magic) + 1
	seqAt  = keyAt + 64 + 1
	sizeAt = seqAt + 16 + 1
	sumAt  = sizeAt + 16 + 1
)

// segPattern matches segment file names; anything else in the directory,
// including the per-object files of the old layout, is ignored.
var segPattern = regexp.MustCompile(`^seg-[0-9a-f]{16}\.log$`)

// scanChunk is how much of a segment one scan read covers.
const scanChunk = 8 << 10

// racyWindow is how long after a directory's last modification its
// mtime cannot prove that no segment was created since: timestamps come
// from a coarse clock, and some filesystems keep whole seconds.
const racyWindow = 2 * time.Second

// ErrBadHash rejects keys that are not lowercase hex SHA-256 names.
var ErrBadHash = errors.New("store: key is not a hex sha-256 hash")

// errClosed is returned by Put after Close.
var errClosed = errors.New("store: closed")

// segment is one segment file as this Store has scanned it.
type segment struct {
	name  string
	f     *os.File // read-only; records are read with pread
	end   int64    // offset the scan reached: every record below it is indexed
	bytes int64    // payload bytes of the records below end, superseded ones included
	top   uint64   // largest sequence number below end: the segment's age for pruning
}

// loc is where a key's newest record lives.
type loc struct {
	seg  *segment
	off  int64 // the record's header
	size int64 // payload length
	seq  uint64
}

// after reports whether l supersedes m: the larger sequence number wins,
// ties go to the later segment name, then the later offset, so every
// scan of the same files picks the same record.
func (l loc) after(m loc) bool {
	if l.seq != m.seq {
		return l.seq > m.seq
	}
	if l.seg != m.seg {
		return l.seg.name > m.seg.name
	}
	return l.off > m.off
}

// Store is a disk-backed content-addressed map from spec hashes to
// canonical report bytes. All methods are safe for concurrent use, and
// any number of Stores, in any number of processes, may share one
// directory: each appends to its own segment.
type Store struct {
	dir      string
	maxBytes int64

	mu     sync.Mutex
	index  map[string]loc
	total  int64      // payload bytes currently indexed
	segs   []*segment // sorted by name
	active *segment   // the segment w appends to; nil until the first Put
	w      *os.File   // O_APPEND descriptor holding active's exclusive lock
	clock  uint64     // largest sequence number seen; the next record gets clock+1
	wbuf   []byte     // one record, reused across Puts
	sbuf   []byte     // scanChunk bytes for scanLocked
	closed bool

	listed time.Time // the directory's mtime at the last listing
	racy   bool      // that listing ran within racyWindow of its mtime

	hits     uint64
	misses   uint64
	corrupt  uint64
	evicted  uint64
	writeErr uint64
}

// Open prepares dir (creating it if needed) and indexes the records of
// every segment in it. maxBytes bounds the segments' payload bytes — 0
// means unbounded; past the bound, whole segments are evicted oldest
// first. Files that are not segments are ignored: a directory in the old
// one-file-per-object layout reads as empty.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, index: make(map[string]loc)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.listLocked(); err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	// Enforce the bound on pre-existing data too (a restart with a
	// smaller maxBytes, or a sibling having grown the shared directory),
	// not just on the next Put.
	s.pruneLocked()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validKey reports whether key is a lowercase hex SHA-256 name, the
// names the service layer keys on.
func validKey(key string) bool {
	return len(key) == 64 && lowerHex([]byte(key))
}

// encodeHeader appends the header of a record to buf.
func encodeHeader(buf []byte, key string, seq uint64, body []byte) []byte {
	sum := sha256.Sum256(body)
	buf = append(append(buf, magic+" "...), key...)
	buf = appendHex16(append(buf, ' '), seq)
	buf = appendHex16(append(buf, ' '), uint64(len(body)))
	return append(hex.AppendEncode(append(buf, ' '), sum[:]), '\n')
}

// appendHex16 appends v as 16 lowercase hex digits.
func appendHex16(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return hex.AppendEncode(buf, b[:])
}

// header is a parsed record header; key aliases the parsed bytes.
type header struct {
	key  []byte
	seq  uint64
	size uint64
	sum  [sha256.Size]byte
}

// parseHeader parses a record header, accepting only the exact bytes
// encodeHeader writes.
func parseHeader(b []byte) (header, bool) {
	var h header
	if len(b) < headerLen || string(b[:len(magic)]) != magic || b[keyAt-1] != ' ' || b[seqAt-1] != ' ' ||
		b[sizeAt-1] != ' ' || b[sumAt-1] != ' ' || b[headerLen-1] != '\n' ||
		!lowerHex(b[keyAt:seqAt-1]) || !lowerHex(b[seqAt:sizeAt-1]) || !lowerHex(b[sizeAt:sumAt-1]) || !lowerHex(b[sumAt:headerLen-1]) {
		return h, false
	}
	h.key = b[keyAt : seqAt-1]
	h.seq, _ = strconv.ParseUint(string(b[seqAt:sizeAt-1]), 16, 64)
	h.size, _ = strconv.ParseUint(string(b[sizeAt:sumAt-1]), 16, 64)
	hex.Decode(h.sum[:], b[sumAt:headerLen-1])
	return h, true
}

// lowerHex reports whether b is non-empty lowercase hex.
func lowerHex(b []byte) bool {
	for _, c := range b {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(b) > 0
}

// Get returns the payload stored under hash. Any defect — a record that
// is missing, truncated or fails its checksum — is a miss; a defective
// record is dropped from the index and counted, so it is never served,
// and the re-execution's rewrite supersedes it on every later scan.
func (s *Store) Get(hash string) ([]byte, bool) {
	if !validKey(hash) {
		return nil, false
	}
	s.mu.Lock()
	l, found := s.findLocked(hash)
	s.mu.Unlock()
	var body []byte
	var ok, unlinked bool
	if found {
		body, unlinked, ok = read(l, hash)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case ok:
		s.hits++
		return body, true
	case unlinked:
		s.dropSegmentLocked(l.seg)
	case found && s.index[hash] == l:
		// Still the indexed record (not one a concurrent drop or Put
		// replaced), so the bytes on disk are bad.
		s.corrupt++
		s.total -= l.size
		delete(s.index, hash)
	}
	s.misses++
	return nil, false
}

// read reads and verifies the record at l. unlinked reports that the
// segment was deleted (by a purge or prune in any process sharing the
// directory), which makes the record a miss without being corrupt.
func read(l loc, hash string) (body []byte, unlinked, ok bool) {
	if fi, err := l.seg.f.Stat(); err != nil || nlink(fi) == 0 {
		return nil, err == nil, false
	}
	raw := make([]byte, int64(headerLen)+l.size)
	if _, err := l.seg.f.ReadAt(raw, l.off); err != nil {
		return nil, false, false
	}
	h, ok := parseHeader(raw)
	body = raw[headerLen:]
	if !ok || string(h.key) != hash || h.size != uint64(l.size) || sha256.Sum256(body) != h.sum {
		return nil, false, false
	}
	return body, false, true
}

// nlink is a file's hard-link count; 0 means it was unlinked.
func nlink(fi fs.FileInfo) uint64 {
	if st, ok := fi.Sys().(*syscall.Stat_t); ok {
		return uint64(st.Nlink)
	}
	return 1
}

// findLocked looks hash up in the index, first bringing the index up to
// date with the directory when it misses.
func (s *Store) findLocked(hash string) (loc, bool) {
	if s.closed {
		return loc{}, false
	}
	l, ok := s.index[hash]
	if !ok {
		s.refreshLocked()
		l, ok = s.index[hash]
	}
	return l, ok
}

// refreshLocked indexes what other Stores sharing the directory wrote
// since the last look: records appended to known segments, and new
// segments. Known segments cost one fstat each; the directory is listed
// again only when its mtime says a segment may have been created. A
// segment whose link count dropped to zero was deleted by a purge or
// prune elsewhere and stops being served.
func (s *Store) refreshLocked() {
	for _, seg := range append([]*segment(nil), s.segs...) {
		fi, err := seg.f.Stat()
		switch {
		case err != nil || nlink(fi) == 0:
			s.dropSegmentLocked(seg)
		case fi.Size() > seg.end:
			s.scanLocked(seg, fi.Size())
		}
	}
	fi, err := os.Stat(s.dir)
	if err != nil || fi.ModTime().Equal(s.listed) && !s.racy {
		return
	}
	s.listLocked() // an unreadable directory leaves the index as it was
}

// listLocked lists the directory and scans every segment not yet known.
func (s *Store) listLocked() error {
	fi, err := os.Stat(s.dir)
	if err != nil {
		return err
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	s.listed, s.racy = fi.ModTime(), time.Since(fi.ModTime()) < racyWindow
	for _, e := range ents {
		i, known := s.segIndex(e.Name())
		if known || !segPattern.MatchString(e.Name()) {
			continue
		}
		f, err := os.Open(filepath.Join(s.dir, e.Name()))
		if err != nil {
			continue // unreadable: its records read as misses
		}
		seg := &segment{name: e.Name(), f: f}
		s.segs = slices.Insert(s.segs, i, seg)
		if fi, err := f.Stat(); err == nil {
			s.scanLocked(seg, fi.Size())
		}
	}
	return nil
}

// segIndex finds the segment named name in s.segs, or where it belongs.
func (s *Store) segIndex(name string) (int, bool) {
	return slices.BinarySearchFunc(s.segs, name, func(seg *segment, name string) int { return strings.Compare(seg.name, name) })
}

// scanLocked indexes the complete records between seg.end and size,
// reading headers and skipping payloads. Reads go a chunk at a time, so
// small records cost a fraction of a read each and a large one no more
// than one. An incomplete or malformed record ends the scan: it is a
// crashed writer's torn tail, an append still in flight, or damage, and
// the next scan starts there.
func (s *Store) scanLocked(seg *segment, size int64) {
	if s.sbuf == nil {
		s.sbuf = make([]byte, scanChunk)
	}
	var have []byte // the file's bytes from seg.end on, as far as read
	for seg.end+int64(headerLen) <= size {
		if len(have) < headerLen {
			n, _ := seg.f.ReadAt(s.sbuf[:min(int64(scanChunk), size-seg.end)], seg.end)
			if n < headerLen {
				return
			}
			have = s.sbuf[:n]
		}
		h, ok := parseHeader(have)
		if !ok || h.size > uint64(size-seg.end-int64(headerLen)) {
			return
		}
		s.indexLocked(string(h.key), loc{seg: seg, off: seg.end, size: int64(h.size), seq: h.seq})
		n := int64(headerLen) + int64(h.size)
		seg.end += n
		have = have[min(n, int64(len(have))):]
	}
}

// indexLocked records a scanned or appended record, which replaces the
// key's indexed record only if it supersedes it.
func (s *Store) indexLocked(key string, l loc) {
	l.seg.bytes += l.size
	l.seg.top = max(l.seg.top, l.seq)
	s.clock = max(s.clock, l.seq)
	if old, ok := s.index[key]; ok {
		if !l.after(old) {
			return
		}
		s.total -= old.size
	}
	s.index[key] = l
	s.total += l.size
}

// dropSegmentLocked forgets seg and every key indexed into it, returning
// how many keys that was. The file itself is left to the caller.
func (s *Store) dropSegmentLocked(seg *segment) int {
	if seg == s.active {
		s.retireLocked()
	}
	seg.f.Close()
	if i, ok := s.segIndex(seg.name); ok && s.segs[i] == seg {
		s.segs = slices.Delete(s.segs, i, i+1)
	}
	n := 0
	for h, l := range s.index {
		if l.seg == seg {
			s.total -= l.size
			delete(s.index, h)
			n++
		}
	}
	return n
}

// Put appends body under hash as one record, written with one write(2)
// to this Store's segment; a later record of the same key supersedes
// earlier ones. A crash mid-append leaves a torn tail that every scan
// stops before, and that the next writer to take over the segment cuts
// off.
func (s *Store) Put(hash string, body []byte) error {
	if !validKey(hash) {
		return fmt.Errorf("%w: %q", ErrBadHash, hash)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.writableLocked()
	if err == nil {
		s.wbuf = append(encodeHeader(s.wbuf[:0], hash, s.clock+1, body), body...)
		if _, err = s.w.Write(s.wbuf); err != nil {
			s.retireLocked() // the next writer truncates whatever landed
		}
	}
	if err != nil {
		s.writeErr++
		return fmt.Errorf("store: put %s: %w", hash, err)
	}
	seg := s.active
	s.indexLocked(hash, loc{seg: seg, off: seg.end, size: int64(len(body)), seq: s.clock + 1})
	seg.end += int64(len(s.wbuf))
	s.pruneLocked()
	return nil
}

// writableLocked makes sure s.w appends at s.active.end: it keeps the
// current segment while it is intact, linked and below the rotation
// size, and otherwise takes over an unlocked segment or creates one.
func (s *Store) writableLocked() error {
	if s.closed {
		return errClosed
	}
	if s.w != nil {
		var st syscall.Stat_t
		err := syscall.Fstat(int(s.w.Fd()), &st)
		if err == nil && st.Nlink > 0 && st.Size == s.active.end && !s.full(s.active) {
			return nil
		}
		seg := s.active
		s.retireLocked()
		if err == nil && st.Nlink == 0 {
			s.dropSegmentLocked(seg)
		}
	}
	s.refreshLocked()
	for _, seg := range s.segs {
		if !s.full(seg) && s.adoptLocked(seg) {
			return nil
		}
	}
	return s.createLocked()
}

// full reports whether seg has reached the rotation size of a bounded
// store, a quarter of the bound, so pruning frees space a segment at a
// time. Unbounded stores never rotate.
func (s *Store) full(seg *segment) bool {
	return s.maxBytes > 0 && seg.bytes >= max(s.maxBytes/4, 1)
}

// adoptLocked takes over seg as this Store's append target if no other
// Store holds it. Empty segments are never adopted: their creator may
// not have taken its lock yet. A torn tail left by a crashed writer is
// truncated, so appends start at a record boundary.
func (s *Store) adoptLocked(seg *segment) bool {
	w, err := os.OpenFile(filepath.Join(s.dir, seg.name), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return false
	}
	if syscall.Flock(int(w.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) != nil {
		w.Close()
		return false
	}
	fi, err := w.Stat()
	if err != nil || nlink(fi) == 0 || fi.Size() == 0 || fi.Size() < seg.end {
		w.Close()
		return false
	}
	s.scanLocked(seg, fi.Size())
	if fi.Size() > seg.end && w.Truncate(seg.end) != nil || s.full(seg) {
		w.Close()
		return false
	}
	s.active, s.w = seg, w
	return true
}

// createLocked starts a new segment and locks it before its first
// append.
func (s *Store) createLocked() error {
	name := fmt.Sprintf("seg-%016x.log", rand.Uint64())
	path := filepath.Join(s.dir, name)
	w, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err == nil {
		if err = syscall.Flock(int(w.Fd()), syscall.LOCK_EX); err != nil {
			f.Close()
		}
	}
	if err != nil {
		w.Close()
		os.Remove(path)
		return err
	}
	seg := &segment{name: name, f: f}
	i, _ := s.segIndex(name)
	s.segs = slices.Insert(s.segs, i, seg)
	s.active, s.w = seg, w
	return nil
}

// retireLocked stops appending to the active segment and releases its
// lock; the segment stays indexed and readable.
func (s *Store) retireLocked() {
	if s.w != nil {
		s.w.Close()
	}
	s.active, s.w = nil, nil
}

// pruneLocked deletes whole segments, oldest last write first, until the
// segments' payload bytes fit maxBytes. The active segment is never
// deleted, so the newest entry survives even if it alone exceeds the
// bound.
func (s *Store) pruneLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for {
		var used int64
		var victim *segment
		for _, seg := range s.segs {
			used += seg.bytes
			if seg != s.active && seg.bytes > 0 && (victim == nil || seg.top < victim.top) {
				victim = seg
			}
		}
		if used <= s.maxBytes || victim == nil {
			return
		}
		os.Remove(filepath.Join(s.dir, victim.name))
		s.evicted += uint64(s.dropSegmentLocked(victim))
	}
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

// Purge deletes every segment in the directory, including those other
// Stores append to (they notice and start a new one), and resets the
// index; the directory itself survives for subsequent Puts.
func (s *Store) Purge() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resetLocked()
	ents, err := os.ReadDir(s.dir)
	for _, e := range ents { // sorted by name
		if !segPattern.MatchString(e.Name()) {
			continue
		}
		if rerr := os.Remove(filepath.Join(s.dir, e.Name())); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) && err == nil {
			err = rerr
		}
	}
	return err
}

// Close releases the Store's descriptors and its segment lock. Later
// Gets miss and Puts fail; the files stay for the next Open.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return s.resetLocked()
}

// resetLocked closes every descriptor and empties the index, returning
// the error of closing the append descriptor.
func (s *Store) resetLocked() error {
	var err error
	if s.w != nil {
		err = s.w.Close()
	}
	for _, seg := range s.segs {
		seg.f.Close()
	}
	s.active, s.w, s.segs, s.index, s.total, s.listed = nil, nil, nil, make(map[string]loc), 0, time.Time{}
	return err
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
