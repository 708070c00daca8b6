// Package store is the content-addressed disk layer of the query
// service's result cache. Every artifact the toolkit serves — round
// complexes, Betti vectors, decision-map verdicts — is a pure function of
// a small parameter tuple, so a (key → payload) store survives process
// restarts and turns repeated queries into a single disk read.
//
// Keys are arbitrary strings (the service uses canonicalized request
// parameter tuples and topology.Complex.CanonicalHash values); the store
// addresses each entry by the SHA-256 of its key, fanning files out over
// 256 subdirectories. Entries are written atomically (temp file + rename
// in the same directory) and framed with a magic header and a SHA-256
// payload checksum, so a crash mid-write, a truncated file, or on-disk
// corruption is detected on read: the entry is evicted (best-effort
// unlink) and reported as a miss, never served as wrong bytes and never a
// panic. A Store is safe for concurrent use by any number of goroutines.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// magic identifies store entry files; bump the trailing digit when the
// framing changes so old entries read as corrupt and are evicted.
var magic = [8]byte{'P', 'S', 'S', 'T', 'O', 'R', 'E', '1'}

// headerSize is magic + uint64 payload length + SHA-256 payload checksum.
const headerSize = 8 + 8 + sha256.Size

// maxPayload rejects absurd payload lengths before allocation, so a
// corrupt length field cannot ask for petabytes.
const maxPayload = 1 << 32

// Backend is the pluggable face of the result tier: anything that can
// answer key → payload lookups and accept writes. *Store is the local
// disk implementation; internal/cluster wraps one in a read-through
// backend that fills misses from the key's owner replica, so the query
// service is written against this interface and does not care whether a
// byte came from its own disk or a peer's.
//
// Get must never return wrong bytes — a corrupt or unreachable entry is
// a miss. Stats reports Get hits/misses, completed Puts, and corrupt
// entries evicted; Len counts entries (may be O(entries), metrics only).
type Backend interface {
	Get(key string) ([]byte, bool)
	Put(key string, payload []byte) error
	Stats() (hits, misses, puts, evictions uint64)
	Len() int
}

// Store is a content-addressed cache rooted at one directory. The zero
// value is not usable; call Open.
type Store struct {
	root string

	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	evictions atomic.Uint64
}

var _ Backend = (*Store)(nil)

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty root directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{root: dir}, nil
}

// pathOf maps a key to its entry path: root/<first hex byte>/<full hash>.
func (s *Store) pathOf(key string) string {
	sum := sha256.Sum256([]byte(key))
	hex := fmt.Sprintf("%x", sum)
	return filepath.Join(s.root, hex[:2], hex[2:])
}

// Get returns the payload stored under key. A missing entry returns
// (nil, false). A corrupt entry — truncated, garbage, bad checksum — is
// evicted and likewise returns (nil, false); corruption is never
// propagated to the caller.
func (s *Store) Get(key string) ([]byte, bool) {
	path := s.pathOf(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, ok := decodeFrame(raw)
	if !ok {
		s.evict(path)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// Put stores payload under key, replacing any previous entry. The write
// is atomic: concurrent readers see either the old complete entry or the
// new one, never a torn file.
func (s *Store) Put(key string, payload []byte) error {
	if int64(len(payload)) > maxPayload {
		return fmt.Errorf("store: payload of %d bytes exceeds the %d limit", len(payload), int64(maxPayload))
	}
	path := s.pathOf(key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	frame := encodeFrame(payload)
	if _, err := tmp.Write(frame); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// evict removes a corrupt entry (best effort — a racing Put may already
// have replaced it, and losing that race is fine).
func (s *Store) evict(path string) {
	s.evictions.Add(1)
	os.Remove(path)
}

// EncodeFrame frames a payload with the store's magic header, its length,
// and its SHA-256 checksum — the same self-validating record format the
// store writes to disk. Exported for append-only logs (the job subsystem's
// checkpoint files) that want the store's corruption guarantees without
// its key-addressed layout: concatenated EncodeFrame records are decoded
// back with NextFrame, and any torn or corrupted record reads as
// ok=false, never as wrong bytes.
func EncodeFrame(payload []byte) []byte {
	return encodeFrame(payload)
}

// DecodeFrame validates a single framed record (as produced by
// EncodeFrame) and returns its payload; ok=false on any corruption. The
// returned payload aliases raw.
func DecodeFrame(raw []byte) (payload []byte, ok bool) {
	return decodeFrame(raw)
}

// NextFrame decodes the first framed record at the front of raw and
// returns its payload together with the remaining bytes. A short,
// torn, or corrupted leading record reports ok=false — callers scanning
// an append-only log stop (and typically truncate) at the first bad
// record, keeping the valid prefix. The returned payload aliases raw.
func NextFrame(raw []byte) (payload, rest []byte, ok bool) {
	if len(raw) < headerSize {
		return nil, nil, false
	}
	if [8]byte(raw[:8]) != magic {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint64(raw[8:16])
	if n > maxPayload || n > uint64(len(raw)-headerSize) {
		return nil, nil, false
	}
	end := headerSize + int(n)
	payload = raw[headerSize:end]
	sum := sha256.Sum256(payload)
	if sum != [sha256.Size]byte(raw[16:16+sha256.Size]) {
		return nil, nil, false
	}
	return payload, raw[end:], true
}

// encodeFrame frames a payload with the magic header, its length, and its
// SHA-256 checksum.
func encodeFrame(payload []byte) []byte {
	frame := make([]byte, headerSize+len(payload))
	copy(frame, magic[:])
	binary.LittleEndian.PutUint64(frame[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(frame[16:16+sha256.Size], sum[:])
	copy(frame[headerSize:], payload)
	return frame
}

// decodeFrame validates a raw entry file and returns its payload. Any
// deviation — short file, wrong magic, length mismatch, checksum mismatch
// — reports corruption via ok=false.
func decodeFrame(raw []byte) (payload []byte, ok bool) {
	if len(raw) < headerSize {
		return nil, false
	}
	if [8]byte(raw[:8]) != magic {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(raw[8:16])
	if n > maxPayload || int(n) != len(raw)-headerSize {
		return nil, false
	}
	payload = raw[headerSize:]
	sum := sha256.Sum256(payload)
	if sum != [sha256.Size]byte(raw[16:16+sha256.Size]) {
		return nil, false
	}
	return payload, true
}

// Stats returns the store's counters: hits and misses for Get, completed
// Puts, and corrupt entries evicted.
func (s *Store) Stats() (hits, misses, puts, evictions uint64) {
	return s.hits.Load(), s.misses.Load(), s.puts.Load(), s.evictions.Load()
}

// Len walks the store and returns the number of entries on disk. It is an
// O(entries) directory walk, intended for tests and the metrics endpoint,
// not hot paths.
func (s *Store) Len() int {
	n := 0
	filepath.WalkDir(s.root, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() && filepath.Base(path)[0] != '.' {
			n++
		}
		return nil
	})
	return n
}
