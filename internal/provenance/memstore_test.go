package provenance_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"hiway/internal/provenance"
	"hiway/internal/shard"
)

// memProgram runs a program decoded from data against several MemStores and
// a plain []Event model of each, and checks order, count and contents after
// every operation. Each operation is one byte, and its arguments the bytes
// after it:
//
//	0 store n n   AppendBatch of 0…600 events, through one reused buffer
//	1 store       Append of one event
//	2 store       a scan from every position, 0 to one past the end
//	3 store       Events, which must be a fresh copy
//	4 store       eventsHint
//	5             shard.MergeEvents across all the stores
type memProgram struct {
	tb     testing.TB
	stores []*provenance.MemStore
	models [][]provenance.Event
	buf    []provenance.Event // the reused batch, as the Manager reuses its own
	seq    int
}

const memStoresPerProgram = 3

func runMemProgram(tb testing.TB, data []byte) {
	p := &memProgram{tb: tb, stores: make([]*provenance.MemStore, memStoresPerProgram), models: make([][]provenance.Event, memStoresPerProgram)}
	for i := range p.stores {
		p.stores[i] = provenance.NewMemStore()
	}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	for ops := 0; len(data) > 0 && ops < 64; ops++ {
		op := next() % 6
		s := next() % memStoresPerProgram
		switch op {
		case 0:
			p.appendBatch(s, (next()<<8|next())%601)
		case 1:
			ev := p.event(s)
			if err := p.stores[s].Append(ev); err != nil {
				tb.Fatal(err)
			}
			p.models[s] = append(p.models[s], ev)
		case 2:
			p.scanEveryPosition(s)
		case 3:
			p.checkEvents(s)
		case 4:
			if got, want := provenance.EventsHint(p.stores[s]), len(p.models[s]); got != want {
				tb.Fatalf("op %d: eventsHint %d, want %d", ops, got, want)
			}
		case 5:
			p.checkMerge()
		}
		p.check(s)
	}
}

// event returns the next event for store s. Timestamps collide often, so
// the merge's tie-breaks are exercised.
func (p *memProgram) event(s int) provenance.Event {
	p.seq++
	return provenance.Event{Signature: fmt.Sprintf("s%d-e%d", s, p.seq), TaskID: int64(p.seq), Timestamp: float64(p.seq % 7)}
}

func (p *memProgram) appendBatch(s, n int) {
	p.buf = p.buf[:0]
	for i := 0; i < n; i++ {
		p.buf = append(p.buf, p.event(s))
	}
	if err := p.stores[s].AppendBatch(p.buf); err != nil {
		p.tb.Fatal(err)
	}
	p.models[s] = append(p.models[s], p.buf...)
	// The caller owns its batch again: scribbling on it must not reach the
	// store.
	for i := range p.buf {
		p.buf[i] = provenance.Event{Signature: "scribbled"}
	}
}

func same(a, b *provenance.Event) bool {
	return a.Signature == b.Signature && a.TaskID == b.TaskID && a.Timestamp == b.Timestamp
}

// check requires store s to hold exactly its model, in order.
func (p *memProgram) check(s int) {
	st, model := p.stores[s], p.models[s]
	if st.Len() != len(model) {
		p.tb.Fatalf("store %d: Len %d, model %d", s, st.Len(), len(model))
	}
	at := 0
	end := st.Scan(0, func(pos int, evs []provenance.Event) {
		if pos != at {
			p.tb.Fatalf("store %d: piece at %d, want %d", s, pos, at)
		}
		for i := range evs {
			if at >= len(model) || !same(&evs[i], &model[at]) {
				p.tb.Fatalf("store %d: position %d holds %+v, model %d events", s, at, evs[i], len(model))
			}
			at++
		}
	})
	if end != len(model) || at != len(model) {
		p.tb.Fatalf("store %d: scan visited %d and returned %d, model %d", s, at, end, len(model))
	}
}

// scanEveryPosition scans store s from each position up to one past its end:
// the pieces must be non-empty, contiguous, start at from, end at the log's
// end and hold the model's events at their ends.
func (p *memProgram) scanEveryPosition(s int) {
	st, model := p.stores[s], p.models[s]
	for from := 0; from <= len(model)+1; from++ {
		at := from
		end := st.Scan(from, func(pos int, evs []provenance.Event) {
			if pos != at || len(evs) == 0 || pos+len(evs) > len(model) {
				p.tb.Fatalf("store %d, scan from %d: piece [%d,+%d), want it at %d within %d", s, from, pos, len(evs), at, len(model))
			}
			if !same(&evs[0], &model[pos]) || !same(&evs[len(evs)-1], &model[pos+len(evs)-1]) {
				p.tb.Fatalf("store %d, scan from %d: piece at %d holds other events", s, from, pos)
			}
			at += len(evs)
		})
		if end != len(model) || (from <= len(model) && at != len(model)) {
			p.tb.Fatalf("store %d, scan from %d: reached %d and returned %d, want %d", s, from, at, end, len(model))
		}
	}
}

// checkEvents requires Events to equal the model and to be the caller's own.
func (p *memProgram) checkEvents(s int) {
	got, err := p.stores[s].Events()
	if err != nil {
		p.tb.Fatal(err)
	}
	if len(got) != len(p.models[s]) {
		p.tb.Fatalf("store %d: Events returned %d, model %d", s, len(got), len(p.models[s]))
	}
	for i := range got {
		if !same(&got[i], &p.models[s][i]) {
			p.tb.Fatalf("store %d: Events()[%d] = %+v", s, i, got[i])
		}
		got[i].Signature = "scribbled"
	}
}

// checkMerge requires shard.MergeEvents to order the stores' events as a
// stable sort of the models by (timestamp, store) does.
func (p *memProgram) checkMerge() {
	type tagged struct {
		store int
		ev    *provenance.Event
	}
	var want []tagged
	for s := range p.models {
		for i := range p.models[s] {
			want = append(want, tagged{s, &p.models[s][i]})
		}
	}
	sort.SliceStable(want, func(a, b int) bool {
		if want[a].ev.Timestamp != want[b].ev.Timestamp {
			return want[a].ev.Timestamp < want[b].ev.Timestamp
		}
		return want[a].store < want[b].store
	})
	got := shard.MergeEvents(p.stores)
	if len(got) != len(want) {
		p.tb.Fatalf("merge: %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if !same(&got[i], want[i].ev) {
			p.tb.Fatalf("merge position %d: %+v, want %+v", i, got[i], *want[i].ev)
		}
	}
}

// memSeedProgram draws a program that mostly appends and reads.
func memSeedProgram(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var prog []byte
	for i := 0; i < 24; i++ {
		op := byte(rng.Intn(6))
		if rng.Intn(3) == 0 {
			op = 0 // appends build logs worth reading
		}
		prog = append(prog, op, byte(rng.Intn(memStoresPerProgram)))
		if op == 0 {
			n := rng.Intn(601)
			if rng.Intn(8) == 0 {
				n = 0
			}
			prog = append(prog, byte(n>>8), byte(n))
		}
	}
	return prog
}

// TestMemStoreMatchesModel runs seeded programs against the chunked store
// and a []Event model.
func TestMemStoreMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		runMemProgram(t, memSeedProgram(seed))
	}
}

func FuzzMemStoreOps(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(memSeedProgram(seed))
	}
	f.Add([]byte{0, 0, 0, 0, 2, 0, 1, 1, 0, 1, 2, 88, 5, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) { runMemProgram(t, data) })
}

// TestMemStoreLiveReader is the server's live-run case: one goroutine folds
// from its last position while another appends. Run under -race, the reader
// must see every event exactly once, in order.
func TestMemStoreLiveReader(t *testing.T) {
	const total = 20000
	st := provenance.NewMemStore()
	rng := rand.New(rand.NewSource(7))
	sizes := []int{}
	for n := 0; n < total; {
		k := min(rng.Intn(300), total-n)
		sizes = append(sizes, k)
		n += k
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf []provenance.Event
		seq := 0
		for _, k := range sizes {
			buf = buf[:0]
			for i := 0; i < k; i++ {
				buf = append(buf, provenance.Event{TaskID: int64(seq)})
				seq++
			}
			if err := st.AppendBatch(buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	pos, scans := 0, 0
	for pos < total {
		at := pos
		pos = st.Scan(pos, func(from int, evs []provenance.Event) {
			if from != at {
				t.Errorf("piece at %d, want %d", from, at)
			}
			for i := range evs {
				if evs[i].TaskID != int64(at) {
					t.Errorf("position %d holds event %d", at, evs[i].TaskID)
				}
				at++
			}
		})
		if at != pos {
			t.Fatalf("scan visited up to %d but returned %d", at, pos)
		}
		scans++
	}
	wg.Wait()
	if pos != total || st.Len() != total {
		t.Fatalf("reader reached %d, store holds %d; want %d", pos, st.Len(), total)
	}
	t.Logf("%d scans folded %d events", scans, total)
}
