// Package store is the persistent tier of the content-addressed result
// cache: spec hash → canonical report bytes, surviving process restarts.
// The service layer consults it below the in-memory LRU and writes every
// finished execution through, so a cfserve restart — or a different
// cfserve sharing the directory — keeps serving byte-identical responses
// without recomputing anything.
//
// On disk a store is a set of append-only segment files. Each open Store
// appends checksummed records to one segment it holds an exclusive lock
// on, and an in-memory index maps every key to its newest record. The
// index holds no pointer, so the garbage collector never marks it. Opening
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
	"math"
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

// maxPayload is the longest payload an index entry can locate: its
// length is held in 32 bits.
const maxPayload = math.MaxUint32

// segment is one segment file as this Store has scanned it.
type segment struct {
	name  string
	id    uint32   // its slot in Store.byID, which index entries name it by
	f     *os.File // read-only; records are read with pread
	fd    int      // f's descriptor, which Get and refresh fstat
	end   int64    // offset the scan reached: every record below it is indexed
	bytes int64    // payload bytes of the records below end, superseded ones included
	top   uint64   // largest sequence number below end: the segment's age for pruning
}

// key is a record key: the SHA-256 digest that its hex name spells.
type key [sha256.Size]byte

// parseKey decodes a lowercase hex SHA-256 name, the names the service
// layer keys on.
func parseKey(hash string) (key, bool) {
	var k key
	if len(hash) != hex.EncodedLen(len(k)) || !lowerHex([]byte(hash)) {
		return k, false
	}
	hex.Decode(k[:], []byte(hash))
	return k, true
}

// loc is where a key's newest record lives. Neither it nor key holds a
// pointer, so an index slot is 56 bytes the garbage collector never
// scans; the segment is named by its id.
type loc struct {
	off  int64 // the record's header
	seq  uint64
	size uint32 // payload length
	seg  uint32 // the segment's id
}

// Store is a disk-backed content-addressed map from spec hashes to
// canonical report bytes. All methods are safe for concurrent use, and
// any number of Stores, in any number of processes, may share one
// directory: each appends to its own segment.
type Store struct {
	dir      string
	dirf     *os.File // dir, held open so refreshes can fstat it
	maxBytes int64

	mu     sync.Mutex
	index  map[key]loc
	total  int64      // payload bytes currently indexed
	segs   []*segment // sorted by name
	byID   []*segment // by id; nil marks a free id
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
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, dirf: dirf, maxBytes: maxBytes, index: make(map[key]loc)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.listLocked(); err != nil {
		dirf.Close()
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

// encodeHeader appends the header of a record to buf.
func encodeHeader(buf []byte, hash string, seq uint64, body []byte) []byte {
	sum := sha256.Sum256(body)
	buf = append(append(buf, magic+" "...), hash...)
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

// header is a parsed record header.
type header struct {
	key  key
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
	hex.Decode(h.key[:], b[keyAt:seqAt-1])
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
	k, valid := parseKey(hash)
	if !valid {
		return nil, false
	}
	s.mu.Lock()
	l, seg := s.findLocked(k)
	s.mu.Unlock()
	var body []byte
	var ok, unlinked bool
	if seg != nil {
		body, unlinked, ok = read(seg, l, k)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case ok:
		s.hits++
		return body, true
	case unlinked:
		s.dropSegmentLocked(seg)
	case seg != nil && s.indexedLocked(k, l, seg):
		// Still the indexed record (not one a concurrent drop or Put
		// replaced), so the bytes on disk are bad.
		s.corrupt++
		s.total -= int64(l.size)
		delete(s.index, k)
	}
	s.misses++
	return nil, false
}

// indexedLocked reports whether k is still indexed at l in seg: no drop
// has freed seg's id for another segment since l was looked up.
func (s *Store) indexedLocked(k key, l loc, seg *segment) bool {
	cur, ok := s.index[k]
	return ok && cur == l && s.liveLocked(seg)
}

// liveLocked reports whether seg is still registered under its id.
func (s *Store) liveLocked(seg *segment) bool {
	return int(seg.id) < len(s.byID) && s.byID[seg.id] == seg
}

// read reads and verifies the record at l in seg. unlinked reports that
// the segment was deleted (by a purge or prune in any process sharing the
// directory), which makes the record a miss without being corrupt. read
// runs unlocked, so a drop may close seg.f meanwhile and another file
// may reuse its descriptor: the stat then describes that file, but the
// read from the closed seg.f fails, and the record is a miss either way.
func read(seg *segment, l loc, k key) (body []byte, unlinked, ok bool) {
	var st syscall.Stat_t
	if err := syscall.Fstat(seg.fd, &st); err != nil || st.Nlink == 0 {
		return nil, err == nil, false
	}
	raw := make([]byte, int64(headerLen)+int64(l.size))
	if _, err := seg.f.ReadAt(raw, l.off); err != nil {
		return nil, false, false
	}
	h, ok := parseHeader(raw)
	body = raw[headerLen:]
	if !ok || h.key != k || h.size != uint64(l.size) || sha256.Sum256(body) != h.sum {
		return nil, false, false
	}
	return body, false, true
}

// findLocked looks k up in the index, first bringing the index up to
// date with the directory when it misses. It returns the record's
// location and segment, or a nil segment when k is not indexed.
func (s *Store) findLocked(k key) (loc, *segment) {
	if s.closed {
		return loc{}, nil
	}
	l, ok := s.index[k]
	if !ok {
		s.refreshLocked()
		if l, ok = s.index[k]; !ok {
			return loc{}, nil
		}
	}
	return l, s.byID[l.seg]
}

// refreshLocked indexes what other Stores sharing the directory wrote
// since the last look: records appended to known segments, and new
// segments. Known segments and the directory cost one fstat each, into a
// Stat_t on the stack; the directory is listed again only when its mtime
// says a segment may have been created. A segment whose link count
// dropped to zero was deleted by a purge or prune elsewhere and stops
// being served.
func (s *Store) refreshLocked() {
	var st syscall.Stat_t
	// Backwards: a drop deletes its segment from s.segs.
	for i := len(s.segs) - 1; i >= 0; i-- {
		seg := s.segs[i]
		err := syscall.Fstat(seg.fd, &st)
		switch {
		case err != nil || st.Nlink == 0:
			s.dropSegmentLocked(seg)
		case st.Size > seg.end:
			s.scanLocked(seg, st.Size)
		}
	}
	if syscall.Fstat(int(s.dirf.Fd()), &st) != nil || mtime(&st).Equal(s.listed) && !s.racy {
		return
	}
	s.listLocked() // an unreadable directory leaves the index as it was
}

// listLocked lists the directory and scans every segment not yet known.
func (s *Store) listLocked() error {
	var st syscall.Stat_t
	if err := syscall.Fstat(int(s.dirf.Fd()), &st); err != nil {
		return err
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	s.listed = mtime(&st)
	s.racy = time.Since(s.listed) < racyWindow
	for _, e := range ents {
		i, known := s.segIndex(e.Name())
		if known || !segPattern.MatchString(e.Name()) {
			continue
		}
		f, err := os.Open(filepath.Join(s.dir, e.Name()))
		if err != nil {
			continue // unreadable: its records read as misses
		}
		seg := s.addLocked(i, e.Name(), f)
		if syscall.Fstat(seg.fd, &st) == nil {
			s.scanLocked(seg, st.Size)
		}
	}
	return nil
}

// addLocked registers a segment at position i of s.segs under the
// lowest free id.
func (s *Store) addLocked(i int, name string, f *os.File) *segment {
	id := slices.Index(s.byID, nil)
	if id < 0 {
		id, s.byID = len(s.byID), append(s.byID, nil)
	}
	seg := &segment{name: name, f: f, fd: int(f.Fd()), id: uint32(id)}
	s.byID[id] = seg
	s.segs = slices.Insert(s.segs, i, seg)
	return seg
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
		// No Put writes a payload an index entry cannot locate; a foreign
		// record that long is stepped over, so its key reads as a miss.
		if h.size <= maxPayload {
			s.indexLocked(h.key, loc{off: seg.end, seq: h.seq, size: uint32(h.size), seg: seg.id})
		}
		n := int64(headerLen) + int64(h.size)
		seg.end += n
		have = have[min(n, int64(len(have))):]
	}
}

// indexLocked records a scanned or appended record, which replaces the
// key's indexed record only if it supersedes it.
func (s *Store) indexLocked(k key, l loc) {
	seg := s.byID[l.seg]
	seg.bytes += int64(l.size)
	seg.top = max(seg.top, l.seq)
	s.clock = max(s.clock, l.seq)
	if old, ok := s.index[k]; ok {
		if !s.supersedesLocked(l, old) {
			return
		}
		s.total -= int64(old.size)
	}
	s.index[k] = l
	s.total += int64(l.size)
}

// supersedesLocked reports whether l supersedes m: the larger sequence
// number wins, ties go to the later segment name, then the later offset,
// so every scan of the same files picks the same record.
func (s *Store) supersedesLocked(l, m loc) bool {
	if l.seq != m.seq {
		return l.seq > m.seq
	}
	if l.seg != m.seg {
		return s.byID[l.seg].name > s.byID[m.seg].name
	}
	return l.off > m.off
}

// dropSegmentLocked forgets seg and every key indexed into it, returning
// how many keys that was, and frees its id. The file itself is left to
// the caller. A segment already dropped is left alone.
func (s *Store) dropSegmentLocked(seg *segment) int {
	if !s.liveLocked(seg) {
		return 0
	}
	if seg == s.active {
		s.retireLocked()
	}
	seg.f.Close()
	i, _ := s.segIndex(seg.name)
	s.segs = slices.Delete(s.segs, i, i+1)
	s.byID[seg.id] = nil
	n := 0
	for k, l := range s.index {
		if l.seg == seg.id {
			s.total -= int64(l.size)
			delete(s.index, k)
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
	k, ok := parseKey(hash)
	if !ok {
		return fmt.Errorf("%w: %q", ErrBadHash, hash)
	}
	if uint64(len(body)) > maxPayload {
		return fmt.Errorf("store: put %s: a %d-byte payload is over the %d-byte limit", hash, len(body), uint64(maxPayload))
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
	s.indexLocked(k, loc{off: seg.end, seq: s.clock + 1, size: uint32(len(body)), seg: seg.id})
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
	var st syscall.Stat_t
	if err := syscall.Fstat(int(w.Fd()), &st); err != nil || st.Nlink == 0 || st.Size == 0 || st.Size < seg.end {
		w.Close()
		return false
	}
	s.scanLocked(seg, st.Size)
	if st.Size > seg.end && w.Truncate(seg.end) != nil || s.full(seg) {
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
	i, _ := s.segIndex(name)
	s.active, s.w = s.addLocked(i, name, f), w
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
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.resetLocked()
	s.dirf.Close()
	return err
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
	s.active, s.w, s.segs, s.byID, s.index, s.total, s.listed = nil, nil, nil, nil, make(map[key]loc), 0, time.Time{}
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
