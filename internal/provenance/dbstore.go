package provenance

import (
	"fmt"
	"strconv"
	"sync"

	"hiway/internal/provdb"
)

// DBStore persists provenance events in an embedded provdb database — the
// stand-in for the paper's MySQL/Couchbase backends, intended for
// heavily-used installations with thousands of trace files. Each event is one
// record: its key is "ev" and the event's sequence number in 20 digits, so
// the database's key order is append order, and its value is the event in the
// binary format of codec.go (not JSON: read a database with Events, RunQuery
// or the Summarize functions, export it with FileStore). Keys of any other
// shape belong to someone else sharing the database and are passed over.
type DBStore struct {
	mu  sync.Mutex
	db  *provdb.DB
	seq int64

	// One batch's encoded records, where each ends, and the keys and values
	// handed to provdb; all reused by the next batch.
	enc  []byte
	ends []int
	keys []string
	vals [][]byte
}

// eventKeyZero is the key event number 0 would have; every event's key has
// its shape, "ev" and 20 digits.
const eventKeyZero = "ev00000000000000000000"

// appendEventKey appends the key of the seq-th event to b.
func appendEventKey(b []byte, seq int64) []byte {
	b = append(b, eventKeyZero...)
	for i := len(b) - 1; seq > 0; i-- {
		b[i] = byte('0' + seq%10)
		seq /= 10
	}
	return b
}

// eventKeySeq returns the sequence number in key, if key is an event's.
func eventKeySeq(key string) (int64, bool) {
	if len(key) != len(eventKeyZero) || key[:2] != eventKeyZero[:2] {
		return 0, false
	}
	// Base 10 takes digits only (no sign, no underscore); 63 bits is int64's
	// positive range.
	n, err := strconv.ParseUint(key[2:], 10, 63)
	return int64(n), err == nil
}

// NewDBStore wraps an open database. Existing events are preserved;
// appends continue after the highest existing sequence number.
func NewDBStore(db *provdb.DB) *DBStore {
	s := &DBStore{db: db}
	db.Range(func(key string, _ []byte) bool {
		// Fixed-width keys sort by sequence number: the last one is the
		// highest, wherever other keys fall around them.
		if n, ok := eventKeySeq(key); ok {
			s.seq = n
		}
		return true
	})
	return s
}

// Append implements Store.
func (s *DBStore) Append(ev Event) error {
	return s.AppendBatch([]Event{ev})
}

// AppendBatch implements BatchAppender. A batch the size of the Manager's is
// one commit: its events encoded into one buffer and appended to the
// database's log with one write. A larger one is cut into commits of
// maxCommitEvents, which keeps the buffers the size of a cache rather than of
// the batch.
func (s *DBStore) AppendBatch(evs []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(evs) > 0 {
		n := min(len(evs), maxCommitEvents)
		if err := s.commit(evs[:n]); err != nil {
			return err
		}
		evs = evs[n:]
	}
	return nil
}

// maxCommitEvents is about 128 KB of records. Appending 5,800 events costs
// 0.8 µs each in commits of 128 to 512, 1.1 µs in commits of 2,048 and 2.5 µs
// in one.
const maxCommitEvents = 512

// commit encodes evs and puts them under the next len(evs) keys.
func (s *DBStore) commit(evs []Event) error {
	s.enc, s.ends = s.enc[:0], s.ends[:0]
	for i := range evs {
		s.enc = appendEvent(s.enc, &evs[i])
		s.ends = append(s.ends, len(s.enc))
	}
	// The keys go behind the records and leave as one string, which the
	// database's index keeps: one allocation for the batch's keys.
	recs := len(s.enc)
	for i := range evs {
		s.enc = appendEventKey(s.enc, s.seq+1+int64(i))
	}
	allKeys := string(s.enc[recs:])
	s.keys, s.vals = s.keys[:0], s.vals[:0]
	start := 0
	for i, end := range s.ends {
		s.keys = append(s.keys, allKeys[i*len(eventKeyZero):(i+1)*len(eventKeyZero)])
		s.vals = append(s.vals, s.enc[start:end])
		start = end
	}
	if err := s.db.PutBatch(s.keys, s.vals); err != nil {
		return err
	}
	s.seq += int64(len(evs))
	return nil
}

// scan decodes the stored events in append order, calling fn with each. ev is
// one value, overwritten for the next event; what it points to (its strings,
// Inputs, Outputs) is allocated fresh for every event and may be kept. fn
// runs inside provdb's Range and must not touch the database.
func (s *DBStore) scan(fn func(ev *Event)) error {
	var ev Event
	var err error
	s.db.Range(func(key string, value []byte) bool {
		if _, ok := eventKeySeq(key); !ok {
			return true
		}
		if err = decodeEvent(value, &ev); err != nil {
			err = fmt.Errorf("provenance: decoding %s: %w", key, err)
			return false
		}
		fn(&ev)
		return true
	})
	return err
}

// Events implements Store.
func (s *DBStore) Events() ([]Event, error) {
	events := make([]Event, 0, s.db.Len())
	err := s.scan(func(ev *Event) { events = append(events, *ev) })
	return events, err
}

// Close implements Store.
func (s *DBStore) Close() error { return s.db.Close() }
