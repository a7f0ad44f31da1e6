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

// MemStore keeps events in memory. The zero value is ready to use.
type MemStore struct {
	mu     sync.Mutex
	events []Event
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Append implements Store.
func (s *MemStore) Append(ev Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, ev)
	return nil
}

// AppendBatch implements BatchAppender. A log that outgrows its array
// doubles it: append's 1.25× rule for large slices re-copies a 20,000-event
// log into five times its final size. A store fed one batch still allocates
// exactly that batch.
func (s *MemStore) AppendBatch(evs []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if need := len(s.events) + len(evs); need > cap(s.events) {
		grown := make([]Event, len(s.events), max(need, 2*cap(s.events)))
		copy(grown, s.events)
		s.events = grown
	}
	s.events = append(s.events, evs...)
	return nil
}

// Events implements Store.
func (s *MemStore) Events() ([]Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out, nil
}

// View returns the stored events without copying them. The store only ever
// appends, so the returned slice — clipped to its length — never changes;
// events appended later are not visible through it.
func (s *MemStore) View() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events[:len(s.events):len(s.events)]
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// scanEvents calls fn with each of store's events in append order, reading
// the store in place where it can be: a MemStore through its view, a DBStore
// record by record; any other store through Events. ev is only good for the
// call (a DBStore decodes every event into the same value), but what it
// points to — its strings, Inputs, Outputs — is never written again and may
// be kept.
func scanEvents(store Store, fn func(ev *Event)) error {
	var evs []Event
	switch s := store.(type) {
	case *DBStore:
		return s.scan(fn)
	case *MemStore:
		evs = s.View()
	default:
		var err error
		if evs, err = store.Events(); err != nil {
			return err
		}
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
		return len(s.View())
	}
	return 0
}

// WriteTrace writes evs to w as a JSONL trace, one JSON object per line — the
// format the paper stores in HDFS, ParseTrace reads back and package
// lang/trace re-executes.
func WriteTrace(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			return fmt.Errorf("provenance: writing trace: %w", err)
		}
	}
	return bw.Flush()
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
