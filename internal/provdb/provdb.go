// Package provdb is an append-only record log used as the long-term
// provenance backend — the stand-in for the MySQL and Couchbase options of
// the paper's Provenance Manager (§3.5), built from scratch on the standard
// library.
//
// Design: one file, a magic-and-version header followed by length- and
// CRC-framed records, opaque to this package. Opening a log reads it whole and
// keeps its records in memory in append order; an append frames a batch of
// records and commits it with one write. Open only reads: what a crashed
// writer left behind the last whole record is cut off by the first append
// that follows.
package provdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

const (
	// header opens every log: magic, a zero, the format version. It is
	// written with the first commit: an empty log is an empty file.
	header = "provdb\x00\x01"

	frameLen = 8 // 4-byte record length + 4-byte CRC32 of the record
	// maxRecordLen bounds a single record: an append over it is refused, and
	// replay treats a length prefix over it as a bad record.
	maxRecordLen = 64 << 20
)

// ErrClosed is returned for operations on a closed log.
var ErrClosed = errors.New("provdb: log is closed")

// ErrCorrupt is wrapped by the error Open returns for a record that fails
// its length or checksum test with more log behind it.
var ErrCorrupt = errors.New("provdb: corrupt record")

// ErrNotLog is wrapped by the error Open returns for a file that does not
// start with a log's header (or as much of it as the file has room for).
var ErrNotLog = errors.New("not a provdb log")

// DB is an open log. All methods are safe for concurrent use.
type DB struct {
	mu   sync.Mutex
	path string
	f    *os.File

	// recs holds the records in append order, each a slice of the bytes that
	// were read from or written to the file.
	recs [][]byte
	// size is how much of the file is header and whole records: where the
	// next commit goes. tail says the file may hold more — a torn record Open
	// found, part of a commit whose write failed — for that commit to cut off.
	size int64
	tail bool
}

// Open opens the log at path, creating an empty one if there is none, and
// reads its records into memory. It never changes the file. A file that is
// neither empty, nor the start of a header, nor a log is refused with
// ErrNotLog. A bad record with more log behind it is damage to data that was
// once written whole: Open reports it as ErrCorrupt, with the record's
// offset. A bad record that runs to the end of the file or past it — the
// signature of a crash mid-write — ends the log; so does a header cut short.
func Open(path string) (*DB, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("provdb: opening %s: %w", path, err)
	}
	db := &DB{path: path, f: f}
	if err := db.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return db, nil
}

// replay reads the file and indexes its whole records.
func (db *DB) replay() error {
	fi, err := db.f.Stat()
	if err != nil {
		return fmt.Errorf("provdb: reading %s: %w", db.path, err)
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(db.f, data); err != nil {
		return fmt.Errorf("provdb: reading %s: %w", db.path, err)
	}
	if n := min(len(data), len(header)); string(data[:n]) != header[:n] {
		return fmt.Errorf("provdb: %s is %w", db.path, ErrNotLog)
	}
	if len(data) < len(header) {
		db.tail = len(data) > 0 // a first commit cut short
		return nil
	}
	off := len(header)
	for len(data)-off >= frameLen {
		rest := data[off:]
		n := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		end := frameLen + int64(n)
		if end > int64(len(rest)) {
			break // the record runs past the end of the file: torn
		}
		if n > maxRecordLen || crc32.ChecksumIEEE(rest[frameLen:end]) != crc {
			if end == int64(len(rest)) {
				break // the last record, written in part: torn
			}
			return fmt.Errorf("%w at offset %d of %s (%d bytes): bad length or checksum",
				ErrCorrupt, off, db.path, len(data))
		}
		db.recs = append(db.recs, rest[frameLen:end:end])
		off += int(end)
	}
	db.size = int64(off)
	db.tail = off < len(data)
	return nil
}

// Append adds records to the end of the log: they lie back to back in data,
// record i ending at ends[i] (and record 0 starting at 0), the way a caller
// that encodes a batch into one buffer has them. They are framed into one
// buffer and committed with a single write, so a crash during it leaves a
// prefix of them whole and at most one torn, which Open passes over. data is
// copied; the caller may reuse it.
func (db *DB) Append(data []byte, ends []int) error {
	start := 0
	for i, end := range ends {
		if n := end - start; n > maxRecordLen {
			return fmt.Errorf("provdb: record %d of the batch is %d bytes, over the %d-byte limit", i, n, maxRecordLen)
		}
		start = end
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.f == nil {
		return ErrClosed
	}
	if len(ends) == 0 {
		return nil
	}
	// Sized to the commit, so it never moves, and not reused: the log's copies
	// of the records are slices of it.
	buf := make([]byte, 0, len(header)+len(ends)*frameLen+start)
	if db.size == 0 {
		buf = append(buf, header...)
	}
	first := len(db.recs)
	start = 0
	for _, end := range ends {
		rec := data[start:end]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(rec))
		buf = append(buf, rec...)
		db.recs = append(db.recs, buf[len(buf)-len(rec):len(buf):len(buf)])
		start = end
	}
	if err := db.commit(buf); err != nil {
		db.recs = db.recs[:first]
		return err
	}
	return nil
}

// commit writes buf behind the last whole record, cutting off first whatever
// else the file holds there.
func (db *DB) commit(buf []byte) error {
	if db.tail {
		if err := db.f.Truncate(db.size); err != nil {
			return fmt.Errorf("provdb: cutting the torn tail of %s: %w", db.path, err)
		}
		db.tail = false
	}
	if _, err := db.f.WriteAt(buf, db.size); err != nil {
		db.tail = true
		return fmt.Errorf("provdb: appending to %s: %w", db.path, err)
	}
	db.size += int64(len(buf))
	return nil
}

// Len returns the number of records in the log.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.recs)
}

// Scan calls fn with each record and its position, in append order, until fn
// returns false. It holds the log's lock for the whole walk, so fn sees one
// state of the log and must not call back into it. rec is the log's own copy:
// fn may read it until it returns and must not modify it.
func (db *DB) Scan(fn func(i int, rec []byte) bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, rec := range db.recs {
		if !fn(i, rec) {
			return
		}
	}
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

// Close closes the log's file. Closing a closed log is a no-op.
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
