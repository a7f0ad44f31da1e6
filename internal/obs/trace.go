package obs

import (
	"strconv"
	"sync"
)

// SpanID identifies a span within one Tracer. The zero SpanID means "no
// span" and is returned by all Begin variants on a nil tracer; passing it
// to End or Arg is a no-op, so disabled call sites need no guards.
type SpanID int32

// Arg is one key/value annotation attached to a span or instant event.
type Arg struct {
	Key, Val string
}

// Span is one timed interval in the execution, with a causal parent.
type Span struct {
	Cat    string // taxonomy category: workflow, task, attempt, phase, container
	Name   string // display name, e.g. the task signature
	Track  string // timeline the span renders on: node ID, "workflow", "tasks"
	Parent SpanID // enclosing span, 0 for roots
	Async  bool   // overlapping spans (tasks): exported as async begin/end pairs
	Start  float64
	End    float64 // negative while the span is still open
	Args   []Arg
}

// Open reports whether the span has not been ended yet.
func (s *Span) Open() bool { return s.End < s.Start }

// instant is a point-in-time event.
type instant struct {
	Cat, Name, Track string
	At               float64
	Args             []Arg
}

// sample is one point of a named counter time series.
type sample struct {
	Track, Name string
	At, Value   float64
}

// Tracer records spans, instant events, and counter samples against a
// caller-supplied clock. All methods are safe on a nil *Tracer and safe for
// concurrent use (the local executor runs attempts from multiple
// goroutines; the simulator is single-threaded).
type Tracer struct {
	mu       sync.Mutex
	clock    func() float64
	spans    []Span
	instants []instant
	samples  []sample
	every    int            // keep every Nth sample per series; <=1 keeps all
	strides  map[string]int // series key → samples seen
}

// NewTracer returns an enabled tracer reading time from clock.
func NewTracer(clock func() float64) *Tracer {
	return &Tracer{clock: clock, every: 1, strides: make(map[string]int)}
}

// Enabled reports whether the tracer records anything. Call sites use it to
// guard work that only feeds the tracer (e.g. formatting a span name).
func (t *Tracer) Enabled() bool { return t != nil }

// SetSampleEvery keeps only every nth Sample call per (track, name) series;
// n <= 1 keeps all samples. Spans and instants are never sampled away.
func (t *Tracer) SetSampleEvery(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 1 {
		n = 1
	}
	t.every = n
}

// Begin opens a span and returns its ID. parent may be 0 for a root span.
func (t *Tracer) Begin(cat, name, track string, parent SpanID) SpanID {
	return t.begin(cat, name, track, parent, false)
}

// BeginAsync opens an async span: one whose siblings on the same track may
// overlap it (task spans — many tasks are ready at once). Async spans are
// exported as trace_event async begin/end pairs instead of complete events.
func (t *Tracer) BeginAsync(cat, name, track string, parent SpanID) SpanID {
	return t.begin(cat, name, track, parent, true)
}

func (t *Tracer) begin(cat, name, track string, parent SpanID, async bool) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		Cat: cat, Name: name, Track: track, Parent: parent, Async: async,
		Start: t.clock(), End: -1,
	})
	return SpanID(len(t.spans))
}

// End closes the span. Ending the zero span or an already-ended span is a
// no-op.
func (t *Tracer) End(id SpanID) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	if sp.Open() {
		sp.End = t.clock()
	}
}

// Arg attaches a string annotation to a span.
func (t *Tracer) Arg(id SpanID, key, val string) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.Args = append(sp.Args, Arg{Key: key, Val: val})
}

// ArgInt attaches an integer annotation to a span. The value is formatted
// inside the tracer so disabled call sites never format.
func (t *Tracer) ArgInt(id SpanID, key string, val int64) {
	if t == nil {
		return
	}
	t.Arg(id, key, strconv.FormatInt(val, 10))
}

// ArgFloat attaches a float annotation to a span.
func (t *Tracer) ArgFloat(id SpanID, key string, val float64) {
	if t == nil {
		return
	}
	t.Arg(id, key, strconv.FormatFloat(val, 'g', -1, 64))
}

// Instant records a point-in-time event (a timeout firing, a node death).
func (t *Tracer) Instant(cat, name, track string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.instants = append(t.instants, instant{Cat: cat, Name: name, Track: track, At: t.clock()})
}

// Sample appends one point to a named counter time series (event-queue
// depth, running containers). Series are decimated by SetSampleEvery.
func (t *Tracer) Sample(track, name string, value float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.every > 1 {
		key := track + "\x00" + name
		seen := t.strides[key]
		t.strides[key] = seen + 1
		if seen%t.every != 0 {
			return
		}
	}
	t.samples = append(t.samples, sample{Track: track, Name: name, At: t.clock(), Value: value})
}

// Counts returns how many spans, instants, and samples were recorded.
func (t *Tracer) Counts() (spans, instants, samples int) {
	if t == nil {
		return 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), len(t.instants), len(t.samples)
}
