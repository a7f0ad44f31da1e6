package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// chromeEvent is one entry of the trace_event JSON array. Field order
// follows the trace_event spec's conventional ordering; encoding/json keeps
// struct order and sorts the Args map, so output is deterministic.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"` // microseconds
	Dur   *int64         `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func micros(sec float64) int64 { return int64(sec * 1e6) }

func argMap(args []Arg) map[string]any {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]any, len(args))
	for _, a := range args {
		m[a.Key] = a.Val
	}
	return m
}

// WriteChrome renders everything the tracer recorded as Chrome trace_event
// JSON — the format chrome://tracing and Perfetto load directly. Each track
// becomes one named thread of a single "hiway" process; normal spans become
// complete ("X") events, async spans become async begin/end ("b"/"e")
// pairs keyed by span ID, instants become "i" events, and counter samples
// become "C" events. Spans still open at export time are closed at the
// tracer's current clock so a killed AM's trace remains loadable. Span and
// parent IDs ride along in args, preserving the causal tree exactly.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()

	// Assign tids in first-appearance order across spans, instants, samples.
	tids := make(map[string]int)
	var tracks []string
	tid := func(track string) int {
		if id, ok := tids[track]; ok {
			return id
		}
		id := len(tids) + 1
		tids[track] = id
		tracks = append(tracks, track)
		return id
	}
	for i := range t.spans {
		tid(t.spans[i].Track)
	}
	for i := range t.instants {
		tid(t.instants[i].Track)
	}
	for i := range t.samples {
		tid(t.samples[i].Track)
	}

	events := make([]chromeEvent, 0, 2+len(tids)*2+2*len(t.spans)+len(t.instants)+len(t.samples))
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "hiway"},
	})
	for i, track := range tracks {
		events = append(events,
			chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1, Args: map[string]any{"name": track}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: i + 1, Args: map[string]any{"sort_index": i + 1}},
		)
	}

	for i := range t.spans {
		sp := &t.spans[i]
		end := sp.End
		if sp.Open() {
			end = now
		}
		args := argMap(sp.Args)
		if args == nil {
			args = make(map[string]any, 2)
		}
		args["span"] = strconv.Itoa(i + 1)
		if sp.Parent != 0 {
			args["parent"] = strconv.Itoa(int(sp.Parent))
		}
		if sp.Async {
			id := strconv.Itoa(i + 1)
			events = append(events,
				chromeEvent{Name: sp.Name, Cat: sp.Cat, Ph: "b", Ts: micros(sp.Start), Pid: 1, Tid: tids[sp.Track], ID: id, Args: args},
				chromeEvent{Name: sp.Name, Cat: sp.Cat, Ph: "e", Ts: micros(end), Pid: 1, Tid: tids[sp.Track], ID: id},
			)
			continue
		}
		dur := micros(end) - micros(sp.Start)
		events = append(events, chromeEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X", Ts: micros(sp.Start), Dur: &dur,
			Pid: 1, Tid: tids[sp.Track], Args: args,
		})
	}
	for i := range t.instants {
		in := &t.instants[i]
		events = append(events, chromeEvent{
			Name: in.Name, Cat: in.Cat, Ph: "i", Ts: micros(in.At),
			Pid: 1, Tid: tids[in.Track], Scope: "t",
		})
	}
	for i := range t.samples {
		s := &t.samples[i]
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "C", Ts: micros(s.At),
			Pid: 1, Tid: tids[s.Track], Args: map[string]any{"value": s.Value},
		})
	}

	// Viewers require begin events before their matching end; sort by (ts,
	// metadata first, original order for ties) to keep output stable.
	sort.SliceStable(events, func(a, b int) bool {
		ea, eb := &events[a], &events[b]
		if (ea.Ph == "M") != (eb.Ph == "M") {
			return ea.Ph == "M"
		}
		return ea.Ts < eb.Ts
	})

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i := range events {
		b, err := json.Marshal(&events[i])
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
