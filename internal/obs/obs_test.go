package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedClock returns a clock that advances by step on every reading, so
// golden outputs are reproducible.
func fixedClock(step float64) func() float64 {
	t := 0.0
	return func() float64 {
		t += step
		return t - step
	}
}

// buildFixture records a small but representative trace: a workflow span,
// an async task span, an attempt with phases on a node track, a container
// span, an instant, and counter samples.
func buildFixture() *Obs {
	o := New(fixedClock(0.5))
	tr := o.T()
	wf := tr.Begin("workflow", "demo", "workflow", 0)
	task := tr.BeginAsync("task", "gen", "tasks", wf)
	cont := tr.Begin("container", "c1", "node-01", 0)
	att := tr.Begin("attempt", "gen", "node-01", task)
	tr.ArgInt(att, "attempt", 0)
	ph := tr.Begin("phase", "stage-in", "node-01", att)
	tr.End(ph)
	tr.Instant("fault", "timeout", "node-01")
	tr.Sample("sim", "event_queue_depth", 3)
	tr.Sample("sim", "event_queue_depth", 7)
	tr.End(att)
	tr.Arg(att, "exit", "0")
	tr.End(cont)
	tr.End(task)
	tr.End(wf)

	m := o.M()
	m.Counter("hiway_core_attempts_total", "attempts launched").Add(2)
	m.CounterL("hiway_yarn_containers_total", "containers per node", "node", "node-01").Inc()
	m.CounterL("hiway_yarn_containers_total", "containers per node", "node", "node-02").Add(3)
	m.Gauge("hiway_sim_event_queue_max_depth", "high-water mark").Set(41)
	h := m.Histogram("hiway_yarn_allocation_latency_seconds", "request to allocate",
		[]float64{0.25, 0.5, 1, 2})
	for _, v := range []float64{0.1, 0.3, 0.3, 1.5, 9} {
		h.Observe(v)
	}

	o.D().Record(Decision{Policy: "dataaware", Node: "node-01", Outcome: OutcomeAssign,
		Task: "gen", TaskID: 7, Queued: 3, Scanned: 2, LocalFrac: 0.75})
	o.D().Record(Decision{Policy: "dataaware", Node: "node-02", Outcome: OutcomeBlacklist,
		Queued: 2, Scanned: 0, LocalFrac: -1})
	return o
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestChromeGolden(t *testing.T) {
	o := buildFixture()
	var buf bytes.Buffer
	if err := o.T().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("exporter emitted invalid JSON:\n%s", buf.String())
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	// Async begin must precede its end; every event needs ph/pid/ts.
	for _, ev := range parsed.TraceEvents {
		if _, ok := ev["ph"]; !ok {
			t.Fatalf("event without ph: %v", ev)
		}
	}
	checkGolden(t, "chrome.golden.json", buf.Bytes())
}

func TestPrometheusGolden(t *testing.T) {
	o := buildFixture()
	var buf bytes.Buffer
	if err := o.M().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE hiway_core_attempts_total counter",
		`hiway_yarn_containers_total{node="node-01"} 1`,
		`hiway_yarn_allocation_latency_seconds_bucket{le="+Inf"} 5`,
		"hiway_yarn_allocation_latency_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	checkGolden(t, "metrics.golden.prom", buf.Bytes())
}

func TestDecisionLogRender(t *testing.T) {
	o := buildFixture()
	got := o.D().Render()
	// The fixture's clock is shared with the tracer, which consumed the
	// first 13 ticks of 0.5s while building spans.
	want := "6.500 dataaware node-01 assign task=gen id=7 queued=3 scanned=2 local=0.750\n" +
		"7.000 dataaware node-02 blacklist queued=2 scanned=0\n"
	if got != want {
		t.Errorf("render mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTracerOffZeroAlloc pins the disabled fast path: with a nil tracer,
// registry, counter, and decision log, a full instrumented event sequence
// performs zero heap allocations.
func TestTracerOffZeroAlloc(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	var c *Counter
	var g *Gauge
	var h *Histogram
	var dl *DecisionLog
	allocs := testing.AllocsPerRun(200, func() {
		id := tr.Begin("attempt", "sig", "node-01", 0)
		tr.ArgInt(id, "attempt", 3)
		tr.ArgFloat(id, "frac", 0.5)
		tr.Arg(id, "k", "v")
		tr.Sample("sim", "depth", 12)
		tr.Instant("fault", "timeout", "node-01")
		tr.End(id)
		c.Inc()
		c.Add(5)
		g.Set(2.5)
		h.Observe(0.3)
		dl.Record(Decision{Policy: "fcfs", Node: "n", Outcome: OutcomeAssign})
		_ = reg.Counter("x", "y")
		_ = tr.Enabled()
	})
	if allocs != 0 {
		t.Fatalf("disabled observability path allocated %v times per event batch, want 0", allocs)
	}
}

func TestSampling(t *testing.T) {
	tr := NewTracer(fixedClock(1))
	tr.SetSampleEvery(3)
	for i := 0; i < 10; i++ {
		tr.Sample("sim", "depth", float64(i))
	}
	_, _, samples := tr.Counts()
	if samples != 4 { // indices 0, 3, 6, 9
		t.Fatalf("samples = %d, want 4", samples)
	}
}

func TestOpenSpansExport(t *testing.T) {
	tr := NewTracer(fixedClock(1))
	id := tr.Begin("workflow", "crashed", "workflow", 0)
	_ = id // never ended: the AM was killed
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("open-span trace invalid: %s", buf.String())
	}
	if !strings.Contains(buf.String(), `"name":"crashed"`) {
		t.Fatal("open span missing from export")
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "l", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-55.5) > 1e-9 {
		t.Fatalf("sum = %g", h.Sum())
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lat_bucket{le="1"} 1`, `lat_bucket{le="10"} 2`, `lat_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestNilObsAccessors(t *testing.T) {
	var o *Obs
	if o.T() != nil || o.M() != nil || o.D() != nil {
		t.Fatal("nil Obs accessors must return nil handles")
	}
	if o.T().Now() != 0 {
		t.Fatal("nil tracer Now")
	}
	var buf bytes.Buffer
	if err := o.T().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("nil tracer export invalid")
	}
	if err := o.M().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}
