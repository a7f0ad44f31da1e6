package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. Methods are no-ops
// on a nil *Counter, so components cache the handle once and use it
// unconditionally.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative n is ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into cumulative buckets, Prometheus
// style. Bounds are upper bucket edges; an implicit +Inf bucket catches the
// rest.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1, last = +Inf
	sum    float64
	n      int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// family is all series sharing one metric name: either a single unlabeled
// series or one series per value of a single label.
type family struct {
	name, help, kind string // kind: counter | gauge | histogram
	label            string // label name; "" for unlabeled families
	counters         map[string]*Counter
	gauges           map[string]*Gauge
	hists            map[string]*Histogram
}

// Registry holds named metrics and renders them as Prometheus text. All
// lookup methods return nil handles on a nil *Registry, keeping the
// disabled path allocation-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, kind, label string) *family {
	f := r.families[name]
	if f == nil {
		f = &family{
			name: name, help: help, kind: kind, label: label,
			counters: make(map[string]*Counter),
			gauges:   make(map[string]*Gauge),
			hists:    make(map[string]*Histogram),
		}
		r.families[name] = f
	}
	return f
}

// Counter returns the unlabeled counter with the given name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterL(name, help, "", "")
}

// CounterL returns the counter for one value of a single-label family
// (e.g. CounterL("containers_total", "...", "node", "node-03")).
func (r *Registry) CounterL(name, help, label, value string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "counter", label)
	c := f.counters[value]
	if c == nil {
		c = &Counter{}
		f.counters[value] = c
	}
	return c
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeL(name, help, "", "")
}

// GaugeL returns the gauge for one value of a single-label family.
func (r *Registry) GaugeL(name, help, label, value string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "gauge", label)
	g := f.gauges[value]
	if g == nil {
		g = &Gauge{}
		f.gauges[value] = g
	}
	return g
}

// Histogram returns the histogram with the given name and bucket bounds
// (ascending upper edges; +Inf is implicit). Bounds are fixed at creation.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "histogram", "")
	h := f.hists[""]
	if h == nil {
		h = &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]int64, len(bounds)+1)}
		f.hists[""] = h
	}
	return h
}

// fnum formats a float the way Prometheus expects.
func fnum(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, families sorted by name and label values sorted within a family,
// so the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := r.families[n]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		var err error
		switch f.kind {
		case "counter":
			err = writeSeries(w, f, len(f.counters), func(v string) string {
				return strconv.FormatInt(f.counters[v].Value(), 10)
			}, f.counters)
		case "gauge":
			err = writeSeries(w, f, len(f.gauges), func(v string) string {
				return fnum(f.gauges[v].Value())
			}, f.gauges)
		case "histogram":
			err = writeHistogram(w, f)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeSeries renders one family's series in sorted label-value order.
func writeSeries[M any](w io.Writer, f *family, n int, value func(string) string, series map[string]M) error {
	vals := make([]string, 0, n)
	for v := range series {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	for _, v := range vals {
		var err error
		if f.label == "" {
			_, err = fmt.Fprintf(w, "%s %s\n", f.name, value(v))
		} else {
			_, err = fmt.Fprintf(w, "%s{%s=%q} %s\n", f.name, f.label, v, value(v))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, f *family) error {
	h := f.hists[""]
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", f.name, fnum(b), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", f.name, fnum(h.sum), f.name, h.n)
	return err
}
