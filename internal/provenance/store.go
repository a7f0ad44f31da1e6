package provenance

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Store is long-term storage for provenance events. Implementations:
// MemStore (in-process) and DBStore over an internal/provdb log (the
// MySQL/Couchbase alternative for heavily-used installations). A JSONL trace
// file, the paper's default, is not a Store: a run buffers its events and
// WriteTrace exports them once it is over.
type Store interface {
	Append(ev Event) error
	// Events returns all stored events in append order.
	Events() ([]Event, error)
	Close() error
}

// BatchAppender is the optional bulk extension of Store: AppendBatch
// persists all events with one lock acquisition and (for file-backed
// stores) one flush, which is what makes the Manager's buffered appends
// cheaper than event-at-a-time writes.
type BatchAppender interface {
	AppendBatch(evs []Event) error
}

// MemStore keeps events in memory as a list of immutable chunks. Each
// AppendBatch copies its batch once, into a new chunk of exactly the batch's
// length; a Manager whose buffer its batch fills exactly hands the buffer
// over as the chunk instead. No chunk is ever copied or written again: a
// growing log costs its events and nothing more, and a reader needs no copy
// to see them. The zero value is ready to use.
type MemStore struct {
	mu     sync.Mutex
	chunks [][]Event
	n      int // events across chunks
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Append implements Store: a one-event batch.
func (s *MemStore) Append(ev Event) error {
	return s.AppendBatch([]Event{ev})
}

// AppendBatch implements BatchAppender. The batch is copied, so the caller
// may reuse evs (the Manager refills one buffer).
func (s *MemStore) AppendBatch(evs []Event) error {
	if len(evs) == 0 {
		return nil
	}
	chunk := make([]Event, len(evs))
	copy(chunk, evs)
	s.adopt(chunk)
	return nil
}

// adopt appends chunk as it is. The caller gives it up: nothing may write
// to its array again, and its length must be its capacity, so the store
// holds its events and nothing more.
func (s *MemStore) adopt(chunk []Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chunks = append(s.chunks, chunk)
	s.n += len(chunk)
}

// snapshot returns the chunks stored so far and how many events they hold.
// The list is clipped and its chunks are never written again, so it may be
// read without the lock while appends go on behind it.
func (s *MemStore) snapshot() ([][]Event, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chunks[:len(s.chunks):len(s.chunks)], s.n
}

// Len returns how many events the store holds.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Scan calls fn with the stored events from position from on, in append
// order, a chunk (or a chunk's tail) at a time: evs holds the events at
// positions pos, pos+1, …. Chunks wholly below from are skipped. Scan returns
// the position after the last event it visited; events appended once Scan
// has begun are not visited, so a reader that passes that position to its
// next Scan sees every event exactly once. fn must not modify evs; what it
// points to is never written again and may be kept.
func (s *MemStore) Scan(from int, fn func(pos int, evs []Event)) int {
	chunks, n := s.snapshot()
	pos := 0
	for _, c := range chunks {
		if end := pos + len(c); end > from {
			off := max(from-pos, 0)
			fn(pos+off, c[off:])
		}
		pos += len(c)
	}
	return n
}

// Events implements Store: one fresh copy of every event.
func (s *MemStore) Events() ([]Event, error) {
	chunks, n := s.snapshot()
	out := make([]Event, 0, n)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// scanEvents calls fn with each of store's events in append order, reading
// the store in place where it can be: a MemStore chunk by chunk, a DBStore
// record by record; any other store through Events. ev is only good for the
// call (a DBStore decodes every event into the same value), but what it
// points to — its strings, Inputs, Outputs — is never written again and may
// be kept.
func scanEvents(store Store, fn func(ev *Event)) error {
	switch s := store.(type) {
	case *DBStore:
		return s.scan(fn)
	case *MemStore:
		s.Scan(0, func(_ int, evs []Event) {
			for i := range evs {
				fn(&evs[i])
			}
		})
		return nil
	}
	evs, err := store.Events()
	if err != nil {
		return err
	}
	for i := range evs {
		fn(&evs[i])
	}
	return nil
}

// eventsHint is about how many events scanEvents will visit, for sizing what
// they are collected into; 0 when the store cannot say without reading them.
func eventsHint(store Store) int {
	switch s := store.(type) {
	case *DBStore:
		return s.db.Len()
	case *MemStore:
		return s.Len()
	}
	return 0
}

// WriteTrace writes evs to w as a JSONL trace, one JSON object per line — the
// format the paper stores in HDFS, ParseTrace reads back and package
// lang/trace re-executes. Each line starts with the event's derived ID, which
// ParseTrace ignores.
func WriteTrace(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range evs {
		if err := enc.Encode(traceLine{evs[i].ID(), &evs[i]}); err != nil {
			return fmt.Errorf("provenance: writing trace: %w", err)
		}
	}
	return bw.Flush()
}

// traceLine is how a trace line encodes an event: its ID, then its fields.
type traceLine struct {
	ID string `json:"id"`
	*Event
}

// ParseTrace decodes a JSONL trace text into events, skipping blank lines.
func ParseTrace(text string) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("provenance: trace line %d: %w", lineNo, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("provenance: scanning trace: %w", err)
	}
	return events, nil
}
