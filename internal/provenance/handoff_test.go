package provenance

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// wrappedStore hides a MemStore behind another type, as the benchmark's
// timing wrapper does: its batches must take the copy path.
type wrappedStore struct{ *MemStore }

// handoffProgram runs a program decoded from data against a Manager and a
// model of what it must do with its buffer. The first byte picks the store
// (even: a MemStore, odd: a wrapped one); then each operation is one byte,
// and its arguments the bytes after it:
//
//	0 n   Reserve(n), n in 0…255 (several in a row add up, as two AMs' do)
//	1 k   record k events, k in 0…63, alternating between two workflows
//	2     Flush
//	3     Store, then a reader scans what is new
//
// After every operation the store must hold exactly the flushed events, in
// order; every chunk must be exactly its length; no chunk may share an array
// with the Manager's buffer; and every chunk a reader has seen must still
// hold what the reader saw. The model predicts each buffer's size (the
// reservation outstanding when it starts, up to flushEvery) and each flush's
// outcome: a MemStore keeps a full buffer as its chunk, and every other batch
// is copied into a chunk of its own.
type handoffProgram struct {
	tb    testing.TB
	m     *Manager
	ms    *MemStore
	wrap  bool
	model []Event // every event recorded, in order
	seq   int

	flushed  int  // model: events handed to the store
	checked  int  // chunks whose events were compared whole
	reserved int  // model: events reserved and not yet recorded
	sized    bool // model: the buffer was started at a reserved size
	wantCap  int  // model: that size

	readPos int       // the reader's next Scan position
	seen    [][]Event // pieces the reader was handed
	copies  [][]Event // what each held when it was handed
}

func runHandoffProgram(tb testing.TB, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	p := &handoffProgram{tb: tb, ms: NewMemStore(), wrap: next()%2 == 1}
	var store Store = p.ms
	if p.wrap {
		store = wrappedStore{p.ms}
	}
	m, err := NewManager(store)
	if err != nil {
		tb.Fatal(err)
	}
	p.m = m
	for ops := 0; len(data) > 0 && ops < 64; ops++ {
		switch next() % 4 {
		case 0:
			n := next()
			p.m.Reserve(n)
			p.reserved += n
		case 1:
			for k := next() % 64; k > 0; k-- {
				p.record()
			}
		case 2:
			p.flush(p.m.buf, len(p.m.buf), p.m.Flush)
		case 3:
			p.flush(p.m.buf, len(p.m.buf), func() error { p.m.Store(); return nil })
			p.read()
		}
		p.check(false)
	}
	p.flush(p.m.buf, len(p.m.buf), p.m.Flush)
	p.read()
	p.check(true)
}

// record records one event and follows it in the model, including the
// flush a full flushEvery batch triggers.
func (p *handoffProgram) record() {
	p.seq++
	ev := Event{Type: TaskStart, WorkflowID: fmt.Sprintf("wf-%d", p.seq%2), TaskID: int64(p.seq), Timestamp: float64(p.seq)}
	if p.seq%3 == 0 {
		ev.Type, ev.Signature, ev.Node, ev.DurationSec = TaskEnd, fmt.Sprintf("sig%d", p.seq%5), "n1", 1
	}
	before := p.m.buf
	if before == nil {
		p.sized = p.reserved > 0
		p.wantCap = min(p.reserved, flushEvery)
	}
	p.reserved = max(p.reserved-1, 0)
	p.model = append(p.model, ev)
	pending := len(before) + 1
	if p.sized && pending > p.wantCap {
		p.sized = false // the batch outgrew its reservation: append regrows it
	}
	if pending == flushEvery {
		p.flush(before, pending, func() error { return p.m.Record(ev) })
		return
	}
	if err := p.m.Record(ev); err != nil {
		p.tb.Fatal(err)
	}
	if p.sized && cap(p.m.buf) != p.wantCap {
		p.tb.Fatalf("event %d: buffer of %d events, want %d (the reservation when it started, up to %d)",
			p.seq, cap(p.m.buf), p.wantCap, flushEvery)
	}
}

// flush runs do, which hands the pending events — recorded into before's
// array unless they outgrew it — to the store, and checks what it did with
// the buffer: over a MemStore a full buffer becomes the new chunk and the
// Manager lets go of it; any other batch is copied and its buffer kept.
func (p *handoffProgram) flush(before []Event, pending int, do func() error) {
	chunks := len(p.ms.chunks)
	if err := do(); err != nil {
		p.tb.Fatal(err)
	}
	if pending == 0 {
		return
	}
	p.flushed += pending
	if len(p.ms.chunks) != chunks+1 {
		p.tb.Fatalf("a flush of %d events made %d chunks", pending, len(p.ms.chunks)-chunks)
	}
	chunk := p.ms.chunks[chunks]
	inPlace := cap(before) >= pending // else append moved them to an array not seen here
	full := inPlace && cap(before) == pending
	arr := unsafe.SliceData(before[:cap(before)])
	switch {
	case p.m.buf == nil && p.wrap:
		p.tb.Fatalf("a %d-event batch was handed to a wrapped store, not copied", pending)
	case p.m.buf == nil && inPlace && (!full || unsafe.SliceData(chunk) != arr):
		p.tb.Fatalf("a %d-event batch in a %d-event buffer was handed over", pending, cap(before))
	case p.m.buf != nil && full && !p.wrap:
		p.tb.Fatalf("a full %d-event buffer was copied, not kept as the chunk", pending)
	case p.m.buf != nil && len(p.m.buf) != 0:
		p.tb.Fatalf("the buffer holds %d events after a flush", len(p.m.buf))
	}
}

// read scans what the store gained since the last read, keeping each piece
// and a copy of it.
func (p *handoffProgram) read() {
	p.readPos = p.ms.Scan(p.readPos, func(_ int, evs []Event) {
		p.seen = append(p.seen, evs)
		p.copies = append(p.copies, append([]Event(nil), evs...))
	})
}

// check runs after every operation. Events are compared whole once, when
// their chunk first appears and at the end (final); in between, a chunk or
// piece is compared by task ID, which an event written over would change.
func (p *handoffProgram) check(final bool) {
	at := 0
	for i, c := range p.ms.chunks {
		if len(c) != cap(c) {
			p.tb.Fatalf("chunk %d holds %d events in an array of %d", i, len(c), cap(c))
		}
		if b := p.m.buf[:cap(p.m.buf)]; len(b) > 0 && unsafe.SliceData(c) == unsafe.SliceData(b) {
			p.tb.Fatalf("chunk %d is the array the Manager records into", i)
		}
		whole := final || i >= p.checked
		for j := range c {
			if at >= p.flushed || c[j].TaskID != p.model[at].TaskID || whole && !sameEvent(&c[j], &p.model[at]) {
				p.tb.Fatalf("position %d holds %+v; %d events flushed", at, c[j], p.flushed)
			}
			at++
		}
	}
	p.checked = len(p.ms.chunks)
	if at != p.flushed || p.ms.Len() != p.flushed {
		p.tb.Fatalf("store holds %d events (Len %d), want %d", at, p.ms.Len(), p.flushed)
	}
	for i, piece := range p.seen {
		for j := range piece {
			if piece[j].TaskID != p.copies[i][j].TaskID || final && !sameEvent(&piece[j], &p.copies[i][j]) {
				p.tb.Fatalf("a piece the reader was handed changed: %+v, was %+v", piece[j], p.copies[i][j])
			}
		}
	}
}

// handoffSeedProgram draws a program that reserves roughly what it records,
// sometimes less and sometimes more, in one or two reservations.
func handoffSeedProgram(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	prog := []byte{byte(seed)}
	for i := 0; i < 20; i++ {
		k := 1 + rng.Intn(63)
		switch rng.Intn(4) {
		case 0: // exact, from two workflows
			a := rng.Intn(k + 1)
			prog = append(prog, 0, byte(a), 0, byte(k-a), 1, byte(k))
		case 1: // short: fewer events than reserved
			prog = append(prog, 0, byte(k+1+rng.Intn(20)), 1, byte(k))
		case 2: // long: more events than reserved
			prog = append(prog, 0, byte(rng.Intn(k)), 1, byte(k))
		case 3: // no reservation
			prog = append(prog, 1, byte(k))
		}
		if rng.Intn(2) == 0 {
			prog = append(prog, byte(2+rng.Intn(2)))
		}
	}
	return prog
}

// handoffCases are the shapes each reservation can take, spelled out.
var handoffCases = map[string][]byte{
	"exact":            {0, 0, 20, 1, 20, 2},
	"short":            {0, 0, 20, 1, 10, 2, 1, 5, 2},
	"long":             {0, 0, 20, 1, 30, 2},
	"two workflows":    {0, 0, 10, 0, 12, 1, 22, 3},
	"several batches":  {0, 0, 255, 0, 45, 1, 63, 1, 63, 1, 63, 1, 63, 1, 48, 2},
	"store mid-batch":  {0, 0, 30, 1, 12, 3, 1, 18, 3, 0, 7, 1, 7, 2},
	"unreserved":       {0, 1, 33, 2, 1, 33, 2},
	"wrapped, exact":   {1, 0, 20, 1, 20, 2, 0, 20, 1, 20, 3},
	"wrapped, batches": {1, 0, 255, 0, 45, 1, 63, 1, 63, 1, 63, 1, 63, 1, 48, 2},
}

// TestManagerHandoffMatchesModel runs the spelled-out cases and seeded
// programs against a Manager and its model.
func TestManagerHandoffMatchesModel(t *testing.T) {
	for name, prog := range handoffCases {
		t.Run(name, func(t *testing.T) { runHandoffProgram(t, prog) })
	}
	for seed := int64(1); seed <= 60; seed++ {
		runHandoffProgram(t, handoffSeedProgram(seed))
	}
}

func FuzzManagerHandoff(f *testing.F) {
	for _, prog := range handoffCases {
		f.Add(prog)
	}
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(handoffSeedProgram(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runHandoffProgram(t, data) })
}

// TestManagerHandoffLiveReader is a store read while runs record into it: two
// workflows at a time reserve and record into one Manager, while another
// goroutine scans from its last position. In the first rounds the
// reservations are exact and every flush hands the buffer over; in the last
// ones they are short or long, and Flush and Store come at arbitrary points.
// Run under -race, the reader must see every event exactly once, in order,
// and no piece it was handed may change afterwards.
func TestManagerHandoffLiveReader(t *testing.T) {
	const rounds, exactRounds = 60, 40
	st := NewMemStore()
	m, err := NewManager(st)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(11))
		seq := 0
		for r := 0; r < rounds; r++ {
			exact := r < exactRounds
			a, b := rng.Intn(300), 1+rng.Intn(300)
			if exact {
				m.Reserve(a)
				m.Reserve(b)
			} else {
				m.Reserve(rng.Intn(a + b + 50))
			}
			for i := 0; i < a+b; i++ {
				wf := fmt.Sprintf("wf-%d", i%2)
				if err := m.Record(Event{Type: TaskStart, WorkflowID: wf, TaskID: int64(seq)}); err != nil {
					t.Error(err)
					return
				}
				seq++
				if !exact && rng.Intn(40) == 0 {
					if rng.Intn(2) == 0 {
						_ = m.Flush()
					} else {
						m.Store()
					}
				}
			}
			_ = m.Flush()
			if exact && m.buf != nil {
				t.Errorf("round %d: %d exactly reserved events ended in a kept buffer of %d", r, a+b, cap(m.buf))
				return
			}
		}
		total = seq
	}()
	var seen, copies [][]Event
	pos := 0
	read := func() {
		at := pos
		pos = st.Scan(pos, func(from int, evs []Event) {
			for i := range evs {
				if evs[i].TaskID != int64(at) {
					t.Fatalf("position %d holds event %d", at, evs[i].TaskID)
				}
				at++
			}
			seen = append(seen, evs)
			copies = append(copies, append([]Event(nil), evs...))
		})
	}
	for live := true; live; {
		select {
		case <-done:
			live = false
		default:
		}
		read()
	}
	wg.Wait()
	read()
	if pos != total || total == 0 {
		t.Fatalf("reader reached %d of %d events", pos, total)
	}
	for i, piece := range seen {
		for j := range piece {
			if !sameEvent(&piece[j], &copies[i][j]) {
				t.Fatalf("a piece the reader was handed changed: %+v, was %+v", piece[j], copies[i][j])
			}
		}
	}
	t.Logf("%d events in %d pieces", total, len(seen))
}

// A served run of 45 tasks reserves its 92 events (a start and an end per
// task, the workflow's start and end) and records them into one array, which
// the MemStore keeps: the run allocates that array once, not a growing buffer
// and a copy of it.
func TestReservedRunAllocatesOneEventArray(t *testing.T) {
	const tasks, events = 45, 2*45 + 2
	const evSize = uint64(unsafe.Sizeof(Event{}))
	evs := make([]Event, events)
	for i := range evs {
		evs[i] = Event{Type: TaskStart, WorkflowID: "wf", TaskID: int64(i/2 + 1)}
	}
	var st *MemStore
	run := func() {
		st = NewMemStore()
		m, err := NewManager(st)
		if err != nil {
			t.Fatal(err)
		}
		m.Reserve(events)
		for i := range evs {
			if err := m.Record(evs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up
	got := allocatedBy(run)
	if len(st.chunks) != 1 || cap(st.chunks[0]) != events {
		t.Fatalf("%d chunks, the first of %d events; want one of %d", len(st.chunks), cap(st.chunks[0]), events)
	}
	// One array, rounded up to its size class (the classes above 16 KB are
	// up to 14% apart), plus the Manager and the store themselves; a second
	// array of the events would double it.
	if limit := events*evSize*115/100 + 1024; got > limit {
		t.Fatalf("a reserved %d-task run allocated %d bytes; one %d-event array is %d, want at most %d",
			tasks, got, events, events*evSize, limit)
	}
}
