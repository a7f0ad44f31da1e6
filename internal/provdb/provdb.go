// Package provdb is a small embedded key-value database used as the
// long-term provenance backend — the stand-in for the MySQL and Couchbase
// options of the paper's Provenance Manager (§3.5), built from scratch on
// the standard library.
//
// Design: a single append-only write-ahead log holds length- and
// CRC-prefixed records (puts and delete tombstones); an in-memory index
// maps each key to its latest value, and an ordered key list serves Range.
// Opening a database replays the log, truncating a torn final record (a
// crashed writer) and refusing a bad record anywhere else with ErrCorrupt.
// Compact rewrites only live records into a fresh log and atomically
// renames it into place.
package provdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
)

const (
	opPut    = byte(1)
	opDelete = byte(2)

	headerLen = 8 // 4-byte payload length + 4-byte CRC32
	// maxRecordLen bounds a single record: a put over it is refused, and
	// replay treats a length prefix over it as a bad record.
	maxRecordLen = 64 << 20
	// maxKeptBuf is the largest commit buffer kept for the next commit.
	maxKeptBuf = 1 << 20
)

// ErrClosed is returned for operations on a closed database.
var ErrClosed = errors.New("provdb: database is closed")

// ErrCorrupt is wrapped by the error Open returns for a record that fails
// its length or checksum test with more log behind it. Such a log is left as
// it was found.
var ErrCorrupt = errors.New("provdb: corrupt record")

// DB is an embedded key-value store. All methods are safe for concurrent
// use.
type DB struct {
	mu   sync.Mutex
	path string
	f    *os.File

	index map[string][]byte
	// keys holds the live keys in ascending order unless keysStale. A new
	// key greater than the last one is appended, so a log written in key
	// order never sorts; any other change to the key set (a new key out of
	// order, a delete) only sets keysStale, and the next sortedKeys call
	// rebuilds the list from the index.
	keys      []string
	keysStale bool

	wbuf []byte // the records of one commit, reused by the next

	liveBytes int64 // bytes of records still live (for compaction heuristics)
	logBytes  int64 // total bytes in the log
}

// Open opens (or creates) the database at path, replaying its log. A bad
// record that runs to the end of the log or past it — the signature of a
// crash mid-write — is truncated away. A bad record with more log behind it
// is damage to data that was once written whole: Open reports it as
// ErrCorrupt, with the record's offset, and leaves the file untouched.
func Open(path string) (*DB, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("provdb: opening %s: %w", path, err)
	}
	db := &DB{path: path, f: f, index: make(map[string][]byte)}
	validLen, err := db.replay()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("provdb: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	db.logBytes = validLen
	return db, nil
}

// replay scans the log, rebuilding the index, and returns the byte offset
// up to which the log is valid.
func (db *DB) replay() (int64, error) {
	fi, err := db.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("provdb: reading log: %w", err)
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(db.f, data); err != nil {
		return 0, fmt.Errorf("provdb: reading log: %w", err)
	}
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < headerLen {
			break // torn header
		}
		plen := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		end := headerLen + int64(plen)
		if end > int64(len(rest)) {
			break // the record runs past the end of the log: torn
		}
		if plen > maxRecordLen || crc32.ChecksumIEEE(rest[headerLen:end]) != crc {
			if end == int64(len(rest)) {
				break // the last record, written in part: torn
			}
			return 0, fmt.Errorf("%w at offset %d of %s (%d bytes): bad length or checksum",
				ErrCorrupt, off, db.path, len(data))
		}
		if err := db.apply(rest[headerLen:end]); err != nil {
			return 0, err
		}
		off += int(end)
	}
	return int64(off), nil
}

// apply interprets one payload against the in-memory index.
func (db *DB) apply(payload []byte) error {
	if len(payload) < 5 {
		return fmt.Errorf("provdb: record too short (%d bytes)", len(payload))
	}
	op := payload[0]
	klen := binary.LittleEndian.Uint32(payload[1:5])
	if len(payload) < 5+int(klen) {
		return fmt.Errorf("provdb: record key length %d exceeds payload", klen)
	}
	key := string(payload[5 : 5+klen])
	switch op {
	case opPut:
		val := make([]byte, len(payload)-5-int(klen))
		copy(val, payload[5+int(klen):])
		db.set(key, val)
	case opDelete:
		db.unset(key)
	default:
		return fmt.Errorf("provdb: unknown record op %d", op)
	}
	return nil
}

// set points key at val, which the index keeps.
func (db *DB) set(key string, val []byte) {
	if old, ok := db.index[key]; ok {
		db.liveBytes -= int64(len(old) + len(key))
	} else if !db.keysStale {
		if n := len(db.keys); n > 0 && key < db.keys[n-1] {
			db.keysStale = true
		} else {
			db.keys = append(db.keys, key)
		}
	}
	db.index[key] = val
	db.liveBytes += int64(len(val) + len(key))
}

// unset drops key, if it is live.
func (db *DB) unset(key string) {
	if old, ok := db.index[key]; ok {
		db.liveBytes -= int64(len(old) + len(key))
		delete(db.index, key)
		db.keysStale = true
	}
}

// sortedKeys returns the live keys in ascending order. The caller holds mu
// and the slice is good until it lets go.
func (db *DB) sortedKeys() []string {
	if db.keysStale {
		db.keys = db.keys[:0]
		for k := range db.index {
			db.keys = append(db.keys, k)
		}
		sort.Strings(db.keys)
		db.keysStale = false
	}
	return db.keys
}

// appendRecord appends one framed record to dst.
func appendRecord(dst []byte, op byte, key string, value []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, headerLen)...)
	dst = append(dst, op)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	payload := dst[start+headerLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// commit appends the records in buf to the log with one write and keeps
// buf's storage for the next commit.
func (db *DB) commit(buf []byte) error {
	if cap(buf) <= maxKeptBuf {
		db.wbuf = buf[:0]
	} else {
		db.wbuf = nil
	}
	if _, err := db.f.Write(buf); err != nil {
		return fmt.Errorf("provdb: appending to the log: %w", err)
	}
	db.logBytes += int64(len(buf))
	return nil
}

// Put stores value under key, replacing any previous value.
func (db *DB) Put(key string, value []byte) error {
	return db.PutBatch([]string{key}, [][]byte{value})
}

// PutBatch stores values[i] under keys[i] for every i, in order, as that
// many Puts would: one checksummed record per key. The records are built in
// one buffer and appended to the log with a single write, so a crash during
// it leaves a prefix of them whole and at most one torn, which the next Open
// truncates. The stored copies of the values share one allocation.
func (db *DB) PutBatch(keys []string, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("provdb: %d keys for %d values", len(keys), len(values))
	}
	total := 0
	for i, k := range keys {
		if k == "" {
			return errors.New("provdb: empty key")
		}
		if n := 5 + len(k) + len(values[i]); n > maxRecordLen {
			return fmt.Errorf("provdb: record of %d bytes for key %q exceeds the %d-byte limit", n, k, maxRecordLen)
		}
		total += len(values[i])
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.f == nil {
		return ErrClosed
	}
	if len(keys) == 0 {
		return nil
	}
	buf := db.wbuf[:0]
	for i, k := range keys {
		buf = appendRecord(buf, opPut, k, values[i])
	}
	if err := db.commit(buf); err != nil {
		return err
	}
	slab := make([]byte, total)
	for i, k := range keys {
		n := copy(slab, values[i])
		db.set(k, slab[:n:n])
		slab = slab[n:]
	}
	return nil
}

// Get returns a copy of the value stored under key.
func (db *DB) Get(key string) ([]byte, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	v, ok := db.index[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

// Delete removes key. Deleting a missing key is a no-op (no tombstone is
// written).
func (db *DB) Delete(key string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.index[key]; !ok {
		return nil
	}
	if db.f == nil {
		return ErrClosed
	}
	if err := db.commit(appendRecord(db.wbuf[:0], opDelete, key, nil)); err != nil {
		return err
	}
	db.unset(key)
	return nil
}

// Len returns the number of live keys.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.index)
}

// Range calls fn for each live key in ascending order until fn returns
// false. It holds the database's lock for the whole walk, so fn sees one
// state of the database and must not call back into it. value is the stored
// slice itself, not a copy: fn may read it until it returns and must not
// modify it (Get returns a copy to keep).
func (db *DB) Range(fn func(key string, value []byte) bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, k := range db.sortedKeys() {
		if !fn(k, db.index[k]) {
			return
		}
	}
}

// GarbageRatio reports the fraction of log bytes occupied by dead records —
// a compaction trigger for callers.
func (db *DB) GarbageRatio() float64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.logBytes == 0 {
		return 0
	}
	dead := db.logBytes - db.liveBytes
	if dead < 0 {
		dead = 0
	}
	return float64(dead) / float64(db.logBytes)
}

// Compact rewrites the log keeping only live records, then atomically
// replaces the old log.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.f == nil {
		return ErrClosed
	}
	tmpPath := db.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("provdb: creating compaction file: %w", err)
	}
	w := bufio.NewWriter(tmp)
	var written int64
	var rec []byte
	for _, k := range db.sortedKeys() {
		rec = appendRecord(rec[:0], opPut, k, db.index[k])
		if _, err = w.Write(rec); err != nil {
			break
		}
		written += int64(len(rec))
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("provdb: writing compaction file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := db.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, db.path); err != nil {
		return fmt.Errorf("provdb: swapping compacted log: %w", err)
	}
	f, err := os.OpenFile(db.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("provdb: reopening after compaction: %w", err)
	}
	db.f = f
	db.logBytes = written
	return nil
}

// Sync flushes the log to stable storage.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.f == nil {
		return ErrClosed
	}
	return db.f.Sync()
}

// Close flushes and closes the database.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.f == nil {
		return nil
	}
	err := db.f.Close()
	db.f = nil
	return err
}
