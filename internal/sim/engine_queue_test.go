package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkHeap verifies the queue's two structural invariants: every event
// knows its own position, and no event orders before its parent.
func checkHeap(t testing.TB, e *Engine) {
	t.Helper()
	for i, ev := range e.heap {
		if ev.idx != i {
			t.Fatalf("heap[%d].idx = %d", i, ev.idx)
		}
		if p := (i - 1) / heapArity; i > 0 && evLess(ev, e.heap[p]) {
			t.Fatalf("heap[%d] (at %g seq %d) orders before its parent heap[%d] (at %g seq %d)",
				i, ev.at, ev.seq, p, e.heap[p].at, e.heap[p].seq)
		}
	}
}

// Events with exactly equal timestamps fire in schedule order, also when
// the clusters of equal timestamps lie far apart in virtual time.
func TestEngineSameTimestampFIFOAcrossClusters(t *testing.T) {
	e := NewEngine()
	var got []int
	id := 0
	for c := 0; c < 60; c++ {
		at := float64(c) * 1013.7
		for k := 0; k < 25; k++ {
			i := id
			id++
			e.At(at, func() { got = append(got, i) })
		}
	}
	e.Run()
	if len(got) != id {
		t.Fatalf("fired %d of %d events", len(got), id)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("position %d fired event %d (want FIFO within equal timestamps)", i, got[i])
		}
	}
}

// An event scheduled from a callback for the current instant must run after
// the events already queued at that instant: ordering is (timestamp,
// schedule sequence), and the new arrival has the larger sequence.
func TestEngineSameInstantFromCallback(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(5, func() {
		got = append(got, "first")
		e.At(5, func() { got = append(got, "nested") })
	})
	e.At(5, func() { got = append(got, "second") })
	e.Run()
	want := []string{"first", "second", "nested"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// Cancels must stick whether they come before or after a RunUntil has
// drained everything ahead of the canceled events and peeked at them.
func TestEngineCancelBeforeAndAfterRunUntil(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 200; i++ {
		e.At(float64(i)*0.25, func() {})
	}
	fired := make(map[int]bool)
	evs := make([]*Event, 400)
	for i := range evs {
		i := i
		evs[i] = e.At(1e6+float64(i/4), func() { fired[i] = true })
	}
	for i := 0; i < len(evs); i += 4 {
		e.Cancel(evs[i])
	}
	e.RunUntil(1e5)
	if e.Now() != 1e5 {
		t.Fatalf("RunUntil left the clock at %v", e.Now())
	}
	if e.Pending() != 300 {
		t.Fatalf("Pending()=%d after the first quarter was canceled, want 300", e.Pending())
	}
	for i := 1; i < len(evs); i += 4 {
		e.Cancel(evs[i])
	}
	checkHeap(t, e)
	e.Run()
	for i := range evs {
		want := i%4 >= 2
		if fired[i] != want {
			t.Fatalf("event %d: fired=%v, want %v", i, fired[i], want)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending()=%d after Run", e.Pending())
	}
}

// A heavy burst followed by a sparse tail: the queue fills to 20,000 events,
// drains, and ends on a handful of events spread over ten orders of
// magnitude of virtual time, without losing or reordering any.
func TestEngineBurstThenSparseTail(t *testing.T) {
	e := NewEngine()
	var burst int
	for i := 0; i < 20000; i++ {
		e.At(math.Mod(float64(i)*0.137, 100), func() { burst++ })
	}
	var tail []float64
	for i := 0; i < 12; i++ {
		at := 1000 * math.Pow(4, float64(i))
		e.At(at, func() { tail = append(tail, at) })
	}
	if e.MaxQueueDepth() != 20012 {
		t.Fatalf("MaxQueueDepth()=%d, want 20012", e.MaxQueueDepth())
	}
	checkHeap(t, e)
	e.Run()
	if burst != 20000 {
		t.Fatalf("burst fired %d of 20000", burst)
	}
	if len(tail) != 12 {
		t.Fatalf("tail fired %d of 12", len(tail))
	}
	if !sort.Float64sAreSorted(tail) {
		t.Fatalf("tail fired out of order: %v", tail)
	}
}

// A re-armed event orders exactly as if it had been canceled and scheduled
// anew: it takes its new time, and among events at that instant it fires
// after every one scheduled before the re-arm — whether it was pending,
// had fired, or had been canceled, and also from inside its own callback.
func TestEngineRearmOrdersAsScheduledAnew(t *testing.T) {
	e := NewEngine()
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }

	later := e.At(1, note("later"))     // pending, moved later
	earlier := e.At(9, note("earlier")) // pending, moved earlier
	same := e.At(5, note("same"))       // pending, re-armed for its own time
	e.At(5, note("a"))
	canceled := e.At(2, note("canceled"))
	e.Cancel(canceled)
	fresh := e.NewEvent(note("fresh")) // never scheduled before
	ticks := 0
	var tick *Event
	tick = e.NewEvent(func() { // re-arms itself from its own callback
		got = append(got, "tick")
		if ticks++; ticks < 3 {
			e.Rearm(tick, e.Now())
		}
	})

	e.Rearm(later, 5)
	e.Rearm(earlier, 5)
	e.Rearm(same, 5)
	e.Rearm(canceled, 5)
	e.Rearm(fresh, 5)
	e.Rearm(tick, 5)
	e.At(5, note("b"))
	if e.Pending() != 8 {
		t.Fatalf("Pending()=%d, want 8", e.Pending())
	}
	checkHeap(t, e)
	e.Run()
	// tick's second and third firings were armed while b was already
	// queued for the instant, so they follow it.
	want := []string{"a", "later", "earlier", "same", "canceled", "fresh", "tick", "b", "tick", "tick"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("Now()=%v, want 5", e.Now())
	}

	// After fire: the same event is queued again, and a past or NaN time
	// clamps to now as it does for At.
	got = nil
	e.Rearm(later, 1)
	e.Rearm(same, math.NaN())
	if later.Time() != 5 || same.Time() != 5 {
		t.Fatalf("past/NaN re-arm times %v, %v; want both clamped to 5", later.Time(), same.Time())
	}
	e.Run()
	if len(got) != 2 || got[0] != "later" || got[1] != "same" {
		t.Fatalf("after-fire re-arm fired %v", got)
	}
}

// Re-arming costs no allocation in any state — moving a pending event,
// queueing a canceled one, queueing one that fired. This is what lets a
// SharedResource keep one wake event for its lifetime.
func TestEngineRearmZeroAllocs(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.At(1e6+float64(i), func() {})
	}
	ev := e.NewEvent(func() {})
	e.Rearm(ev, 1) // the first arm may grow the heap's backing array
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		e.Rearm(ev, 2e6+float64(i%97)) // pending, behind the others
		e.Rearm(ev, e.Now()+1)         // pending, back to the front
		e.Cancel(ev)
		e.Rearm(ev, e.Now()+1) // canceled
		if !e.Step() || ev.pending() {
			t.Fatal("the re-armed event did not fire")
		}
		e.Rearm(ev, e.Now()+1) // fired
	})
	if allocs != 0 {
		t.Fatalf("Rearm allocates %v per run, want 0", allocs)
	}
	checkHeap(t, e)
}

// Queue programs: the byte encoding FuzzEngineOps explores and the model
// test generates. A program is a sequence of ops, each one opcode byte
// followed by its arguments — an event as two bytes (little-endian index,
// modulo the events created so far), a time as three (a kind byte and a
// little-endian 16-bit mantissa, see queueHarness.time).
const (
	opSchedule      = iota // time
	opScheduleRearm        // time, delay: when it first fires the event re-arms itself delay later
	opScheduleSpawn        // time, delay: when it first fires the event schedules a new one delay later
	opCancel               // event
	opRearm                // event, time
	opStep                 //
	opRunUntil             // time
	numQueueOps
)

// Time kinds below timeScaled are special values; the rest select a scale.
const (
	timeDuplicate = iota // the last time drawn, exactly
	timePast             // 0: the past once the clock has moved, clamps to now
	timeInf
	timeNaN
	timeScaled
	numTimeKinds = timeScaled + len(queueScales)
)

var queueScales = [...]float64{0.01, 1, 250, 40000}

// Re-arm situations the model test must have exercised.
const (
	coverEarlier     = iota // pending event moved earlier
	coverLater              // pending event moved later
	coverSameTime           // pending event re-armed for the time it already had
	coverAfterFire          // event that had fired
	coverAfterCancel        // event that had been canceled
	coverInCallback         // from inside the event's own callback
	coverSharedTime         // onto an instant another pending event occupies
	numCover
)

type modelState uint8

const (
	modelNew modelState = iota // created, not yet armed
	modelPending
	modelFired
	modelCanceled
)

// onFire is a one-shot action an event performs the first time it fires.
type onFire struct {
	op    byte // opScheduleRearm, opScheduleSpawn, or opSchedule for none
	delay float64
}

// modelEvent is the reference's record of one event.
type modelEvent struct {
	at    float64
	seq   int
	state modelState
	act   onFire
}

// queueHarness drives an Engine and the reference model through the same
// operations. The model is the definition of the engine's contract: the
// pending events in a plain slice, the next one to fire being the least by
// (time, order of scheduling), with a re-arm counting as a fresh scheduling.
type queueHarness struct {
	t testing.TB
	e *Engine

	evs    []*Event // engine side, by event id
	evActs []onFire

	model      []modelEvent // model side, by event id
	now        float64
	seq        int
	pending    int
	maxPending int

	got, want []int // ids in firing order
	checked   int   // firings already compared
	lastAt    float64
	cover     [numCover]int
}

// clamp is the engine's documented treatment of a requested time.
func (h *queueHarness) clamp(at float64) float64 {
	if at < h.now || math.IsNaN(at) {
		return h.now
	}
	return at
}

func (h *queueHarness) modelSchedule(at float64, act onFire) {
	h.model = append(h.model, modelEvent{act: act})
	h.modelArm(len(h.model)-1, at)
}

// modelArm is both scheduling and re-arming: the event becomes pending at
// the clamped time under the next sequence number.
func (h *queueHarness) modelArm(id int, at float64) {
	m := &h.model[id]
	at = h.clamp(at)
	if m.state != modelPending {
		m.state = modelPending
		if h.pending++; h.pending > h.maxPending {
			h.maxPending = h.pending
		}
	}
	h.seq++
	m.at, m.seq = at, h.seq
}

// modelNext returns the id of the next event to fire, or -1.
func (h *queueHarness) modelNext() int {
	next := -1
	for i := range h.model {
		m := &h.model[i]
		if m.state != modelPending {
			continue
		}
		if next < 0 || m.at < h.model[next].at || (m.at == h.model[next].at && m.seq < h.model[next].seq) {
			next = i
		}
	}
	return next
}

func (h *queueHarness) modelFire(id int) {
	m := &h.model[id]
	h.now = m.at
	m.state = modelFired
	h.pending--
	h.want = append(h.want, id)
	act := m.act
	m.act = onFire{}
	switch act.op {
	case opScheduleRearm:
		h.cover[coverInCallback]++
		h.modelArm(id, h.now+act.delay)
	case opScheduleSpawn:
		h.modelSchedule(h.now+act.delay, onFire{})
	}
}

func (h *queueHarness) engineSchedule(at float64, act onFire) {
	id := len(h.evs)
	h.evs = append(h.evs, nil)
	h.evActs = append(h.evActs, act)
	h.evs[id] = h.e.At(at, func() {
		h.got = append(h.got, id)
		act := h.evActs[id]
		h.evActs[id] = onFire{}
		switch act.op {
		case opScheduleRearm:
			h.e.Rearm(h.evs[id], h.e.Now()+act.delay)
		case opScheduleSpawn:
			h.engineSchedule(h.e.Now()+act.delay, onFire{})
		}
	})
}

func (h *queueHarness) schedule(at float64, act onFire) {
	h.modelSchedule(at, act)
	h.engineSchedule(at, act)
}

func (h *queueHarness) cancel(id int) {
	if m := &h.model[id]; m.state == modelPending {
		m.state = modelCanceled
		h.pending--
	}
	h.e.Cancel(h.evs[id])
}

func (h *queueHarness) rearm(id int, at float64) {
	h.noteRearm(id, h.clamp(at))
	h.modelArm(id, at)
	h.e.Rearm(h.evs[id], at)
}

// noteRearm records which re-arm situations this one is.
func (h *queueHarness) noteRearm(id int, at float64) {
	switch m := &h.model[id]; {
	case m.state == modelFired:
		h.cover[coverAfterFire]++
	case m.state == modelCanceled:
		h.cover[coverAfterCancel]++
	case at < m.at:
		h.cover[coverEarlier]++
	case at > m.at:
		h.cover[coverLater]++
	default:
		h.cover[coverSameTime]++
	}
	for i, m := range h.model {
		if i != id && m.state == modelPending && m.at == at {
			h.cover[coverSharedTime]++
			break
		}
	}
}

func (h *queueHarness) step() bool {
	id := h.modelNext()
	if id >= 0 {
		h.modelFire(id)
	}
	if got := h.e.Step(); got != (id >= 0) {
		h.t.Fatalf("Step()=%v with %d events pending in the model", got, h.pending)
	}
	return id >= 0
}

func (h *queueHarness) runUntil(t float64) {
	for {
		id := h.modelNext()
		if id < 0 || !(h.model[id].at <= t) {
			break
		}
		h.modelFire(id)
	}
	if h.now < t {
		h.now = t
	}
	h.e.RunUntil(t)
}

// check compares everything observable about the engine with the model.
func (h *queueHarness) check() {
	h.t.Helper()
	checkHeap(h.t, h.e)
	if h.e.Now() != h.now {
		h.t.Fatalf("Now()=%v, model %v", h.e.Now(), h.now)
	}
	if h.e.Pending() != h.pending {
		h.t.Fatalf("Pending()=%d, model %d", h.e.Pending(), h.pending)
	}
	if h.e.MaxQueueDepth() != h.maxPending {
		h.t.Fatalf("MaxQueueDepth()=%d, model %d", h.e.MaxQueueDepth(), h.maxPending)
	}
	if h.e.Processed() != int64(len(h.want)) {
		h.t.Fatalf("Processed()=%d, model %d", h.e.Processed(), len(h.want))
	}
	if len(h.got) != len(h.want) {
		h.t.Fatalf("fired %d events, model %d", len(h.got), len(h.want))
	}
	for ; h.checked < len(h.want); h.checked++ {
		if i := h.checked; h.got[i] != h.want[i] {
			h.t.Fatalf("firing %d was event %d, model %d", i, h.got[i], h.want[i])
		}
	}
	for id, m := range h.model {
		ev := h.evs[id]
		if ev.pending() != (m.state == modelPending) {
			h.t.Fatalf("event %d pending=%v, model state %d", id, ev.pending(), m.state)
		}
		if m.state == modelPending && ev.Time() != m.at {
			h.t.Fatalf("event %d Time()=%v, model %v", id, ev.Time(), m.at)
		}
	}
}

// progReader hands out a program's bytes; a program that ends inside an
// op's arguments reads zeros.
type progReader struct{ data []byte }

func (r *progReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *progReader) u16() int { return int(r.byte()) | int(r.byte())<<8 }

// time decodes a time argument: an exact duplicate of the last one, a time
// in the past, +Inf, NaN, or now plus up to 16 units of one of four scales.
func (h *queueHarness) time(r *progReader) float64 {
	kind, mant := int(r.byte())%numTimeKinds, r.u16()
	at := h.lastAt
	switch kind {
	case timeDuplicate:
	case timePast:
		at = 0
	case timeInf:
		at = math.Inf(1)
	case timeNaN:
		at = math.NaN()
	default:
		at = h.now + float64(mant)/4096*queueScales[kind-timeScaled]
	}
	h.lastAt = at
	return at
}

// delay decodes an on-fire delay: zero (the same instant) for the special
// kinds, otherwise scaled like a time.
func (h *queueHarness) delay(r *progReader) float64 {
	kind, mant := int(r.byte())%numTimeKinds, r.u16()
	if kind < timeScaled {
		return 0
	}
	return float64(mant) / 4096 * queueScales[kind-timeScaled]
}

// runQueueProgram executes a program against engine and model, comparing
// them after every op, then drains the queue the same way.
func runQueueProgram(t testing.TB, data []byte) *queueHarness {
	h := &queueHarness{t: t, e: NewEngine()}
	r := &progReader{data}
	for len(r.data) > 0 {
		switch op := r.byte() % numQueueOps; op {
		case opSchedule:
			h.schedule(h.time(r), onFire{})
		case opScheduleRearm, opScheduleSpawn:
			h.schedule(h.time(r), onFire{op: op, delay: h.delay(r)})
		case opCancel:
			if id := r.u16(); len(h.evs) > 0 {
				h.cancel(id % len(h.evs))
			}
		case opRearm:
			if id, at := r.u16(), h.time(r); len(h.evs) > 0 {
				h.rearm(id%len(h.evs), at)
			}
		case opStep:
			h.step()
		case opRunUntil:
			h.runUntil(h.time(r))
		}
		h.check()
	}
	for h.step() {
		h.check()
	}
	return h
}

// queueProg builds a program.
type queueProg struct {
	rng  *rand.Rand
	data []byte
}

func (p *queueProg) op(code byte) { p.data = append(p.data, code) }
func (p *queueProg) event(id int) { p.data = append(p.data, byte(id), byte(id>>8)) }

// time appends a time argument: a quarter exact duplicates, now and then
// one of the special values, otherwise a scale drawn uniformly.
func (p *queueProg) time() {
	kind := timeScaled + p.rng.Intn(len(queueScales))
	switch r := p.rng.Intn(100); {
	case r < 25:
		kind = timeDuplicate
	case r < 28:
		kind = timePast + p.rng.Intn(3)
	}
	p.data = append(p.data, byte(kind), byte(p.rng.Intn(256)), byte(p.rng.Intn(256)))
}

// modelProgram is the shape the sorted-model test has always had — a bulk of
// schedules over mixed time scales with duplicate timestamps, a quarter of
// them canceled, a partial drain, a mid-run wave of arrivals — with re-arms
// of pending, fired and canceled events mixed into every phase.
func modelProgram(rng *rand.Rand, bulk int) []byte {
	p := &queueProg{rng: rng}
	wave := bulk / 6
	n := 0
	schedule := func() {
		switch r := rng.Intn(10); {
		case r == 0:
			p.op(opScheduleRearm)
			p.time()
			p.time()
		case r == 1:
			p.op(opScheduleSpawn)
			p.time()
			p.time()
		default:
			p.op(opSchedule)
			p.time()
		}
		n++
	}
	churn := func(count int) {
		for i := 0; i < count; i++ {
			switch rng.Intn(3) {
			case 0:
				p.op(opCancel)
				p.event(rng.Intn(n))
			default:
				p.op(opRearm)
				p.event(rng.Intn(n))
				p.time()
			}
		}
	}
	for i := 0; i < bulk; i++ {
		schedule()
	}
	churn(bulk / 2)
	for i := 0; i < bulk/3; i++ {
		p.op(opStep)
		if rng.Intn(4) == 0 {
			churn(1)
		}
	}
	for i := 0; i < wave; i++ {
		schedule()
	}
	p.op(opRunUntil)
	p.time()
	churn(wave)
	return p.data
}

// The engine must agree with the sorted model — same firing order, clock,
// Pending, depth high-water mark and per-event state after every single
// operation — over randomized programs mixing time scales, duplicate
// timestamps, cancels, mid-run arrivals and re-arms in every state an event
// can be in.
func TestEngineQueueModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cover [numCover]int
	for trial := 0; trial < 25; trial++ {
		h := runQueueProgram(t, modelProgram(rng, 600))
		if h.e.Pending() != 0 {
			t.Fatalf("trial %d: Pending()=%d after the drain", trial, h.e.Pending())
		}
		for i, c := range h.cover {
			cover[i] += c
		}
	}
	for i, c := range cover {
		if c == 0 {
			t.Errorf("no trial exercised re-arm situation %d", i)
		}
	}
}

// FuzzEngineOps runs arbitrary programs of schedule / cancel / re-arm /
// step / RunUntil ops — times over four scales with exact duplicates, the
// past, +Inf and NaN — against the sorted model, with the heap invariants
// checked after every op.
func FuzzEngineOps(f *testing.F) {
	// Some sixty ops, a heap three levels deep. The fuzzer minimizes every
	// input it keeps with a number of runs quadratic in the input's length,
	// so longer programs would spend a 30-second CI smoke minimizing.
	const maxFuzzProgram = 256
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		if p := modelProgram(rng, 16); len(p) <= maxFuzzProgram {
			f.Add(p)
		}
	}
	f.Add([]byte{opSchedule, timeInf, 0, 0, opSchedule, timeNaN, 0, 0, opRunUntil, timeInf, 0, 0, opRearm, 0, 0, timePast, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzProgram {
			t.Skip()
		}
		runQueueProgram(t, data)
	})
}
