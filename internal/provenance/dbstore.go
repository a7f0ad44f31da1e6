package provenance

import (
	"fmt"
	"sync"

	"hiway/internal/provdb"
)

// DBStore persists provenance events in a provdb log — the stand-in for the
// paper's MySQL/Couchbase backends, intended for heavily-used installations
// with thousands of trace files. Each event is one record, in the binary
// format of codec.go (not JSON: read a log with Events, RunQuery or the
// Summarize functions, export it with WriteTrace), and an event's position in
// the log is its sequence number.
type DBStore struct {
	mu sync.Mutex
	db *provdb.DB

	// One batch's encoded records and where each ends, reused by the next
	// batch.
	enc  []byte
	ends []int
}

// NewDBStore wraps an open log. Existing events are preserved; appends go
// behind them.
func NewDBStore(db *provdb.DB) *DBStore { return &DBStore{db: db} }

// Append implements Store.
func (s *DBStore) Append(ev Event) error {
	return s.AppendBatch([]Event{ev})
}

// AppendBatch implements BatchAppender. A batch the size of the Manager's is
// one commit: its events encoded into one buffer and appended to the log with
// one write. A larger one is cut into commits of maxCommitEvents, which keeps
// the buffers the size of a cache rather than of the batch.
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

// commit encodes evs and appends them to the log.
func (s *DBStore) commit(evs []Event) error {
	s.enc, s.ends = s.enc[:0], s.ends[:0]
	for i := range evs {
		s.enc = appendEvent(s.enc, &evs[i])
		s.ends = append(s.ends, len(s.enc))
	}
	return s.db.Append(s.enc, s.ends)
}

// scan decodes the stored events in append order, calling fn with each. ev is
// one value, overwritten for the next event; what it points to (its strings,
// Inputs, Outputs) is allocated fresh for every event and may be kept. fn
// runs inside provdb's Scan and must not touch the log.
func (s *DBStore) scan(fn func(ev *Event)) error {
	var ev Event
	var err error
	s.db.Scan(func(i int, rec []byte) bool {
		if err = decodeEvent(rec, &ev); err != nil {
			err = fmt.Errorf("provenance: decoding record %d: %w", i, err)
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
