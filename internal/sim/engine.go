package sim

import (
	"fmt"
	"math"
)

// Event is a callback bound to an engine's queue. It is pending from the
// moment it is scheduled until it fires or is canceled; Engine.Rearm
// schedules it again.
type Event struct {
	at  float64
	seq int64
	fn  func()
	idx int // position in the engine's heap; -1 while not pending
}

// pending reports whether the event is in the queue.
func (ev *Event) pending() bool { return ev.idx >= 0 }

// evLess is the engine's total order: time, then scheduling sequence, so
// simultaneous events fire deterministically in the order scheduled.
func evLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapArity is the fan-out of the event heap: four children per node halve
// a binary heap's depth, which is what sift-up — the direction a newly
// scheduled timer travels — pays for.
const heapArity = 4

// Engine is a discrete-event simulation engine with a virtual clock measured
// in seconds. The zero value is not usable; call NewEngine.
//
// The pending-event set is one 4-ary min-heap ordered by evLess in which
// every event records its own position, so Cancel and Rearm reach their
// event without a search and fix the heap in O(log₄ n) on the spot: the
// heap holds exactly the events that will fire, and Pending is its length.
type Engine struct {
	now      float64
	seq      int64
	events   int64    // total events executed, for diagnostics
	heap     []*Event // pending events; heap[i].idx == i
	maxDepth int      // high-water mark of len(heap), for observability
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() int64 { return e.events }

// MaxQueueDepth returns the high-water mark of the event queue — the most
// events that were ever pending at once. The observability layer exports it
// as a gauge.
func (e *Engine) MaxQueueDepth() int { return e.maxDepth }

// Pending returns the number of events still scheduled to fire.
func (e *Engine) Pending() int { return len(e.heap) }

// Schedule enqueues fn to run delay seconds from now. A negative delay is
// treated as zero. The returned event may be canceled with Cancel.
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At enqueues fn to run at absolute virtual time t. Times in the past are
// clamped to the current time.
func (e *Engine) At(t float64, fn func()) *Event {
	ev := e.NewEvent(fn)
	e.Rearm(ev, t)
	return ev
}

// NewEvent returns an event bound to fn that is not yet scheduled; Rearm
// puts it in the queue. A long-lived timer that is moved far more often than
// it fires (a SharedResource's completion wake) owns one such event and
// re-arms it, which costs no allocation per move.
func (e *Engine) NewEvent(fn func()) *Event {
	if fn == nil {
		panic("sim: event with nil callback")
	}
	return &Event{fn: fn, idx: -1}
}

// Rearm schedules ev to fire at absolute virtual time t, whatever its state:
// a pending event moves, a fired or canceled one is queued again. In the
// engine's ordering it is exactly Cancel followed by a fresh At — the event
// takes a new sequence number, so it fires after everything already
// scheduled for the same instant — but the event is reused in place. Times
// in the past are clamped to the current time. ev must have been created by
// this engine.
func (e *Engine) Rearm(ev *Event, t float64) {
	if t < e.now || math.IsNaN(t) {
		t = e.now
	}
	e.seq++
	ev.at, ev.seq = t, e.seq
	if ev.pending() {
		// The fresh sequence number can only have moved the event later
		// among equals, but its time may have moved either way.
		if !e.up(ev.idx) {
			e.down(ev.idx)
		}
		return
	}
	ev.idx = len(e.heap)
	e.heap = append(e.heap, ev)
	e.up(ev.idx)
	if len(e.heap) > e.maxDepth {
		e.maxDepth = len(e.heap)
	}
}

// Cancel prevents a scheduled event from firing by removing it from the
// queue. Canceling an event that already fired or was already canceled is a
// no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || !ev.pending() {
		return
	}
	e.removeAt(ev.idx)
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.removeAt(0)
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: event time %g before now %g", ev.at, e.now))
	}
	e.now = ev.at
	e.events++
	ev.fn()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= t, then advances the clock to t.
func (e *Engine) RunUntil(t float64) {
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// removeAt takes the event at heap position i out of the queue: the last
// event fills the hole and sifts to its place.
func (e *Engine) removeAt(i int) *Event {
	h := e.heap
	ev := h[i]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	ev.idx = -1
	if i < n {
		h[i] = last
		last.idx = i
		if !e.up(i) {
			e.down(i)
		}
	}
	return ev
}

// up sifts the event at position i toward the root, reporting whether it
// moved.
func (e *Engine) up(i int) bool {
	h := e.heap
	ev := h[i]
	start := i
	for i > 0 {
		p := (i - 1) / heapArity
		if !evLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = i
		i = p
	}
	h[i] = ev
	ev.idx = i
	return i != start
}

// down sifts the event at position i toward the leaves.
func (e *Engine) down(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		end := c + heapArity
		if end > n {
			end = n
		}
		m := c
		for k := c + 1; k < end; k++ {
			if evLess(h[k], h[m]) {
				m = k
			}
		}
		if !evLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].idx = i
		i = m
	}
	h[i] = ev
	ev.idx = i
}
