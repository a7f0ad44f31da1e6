package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Workload names. Fixed: every later performance claim names one of these
// and one metric from the tables below.
const (
	wlSimWide   = "sim-wide"
	wlSimPaper  = "sim-paper"
	wlServeOpen = "serve-open"
	wlServeMemo = "serve-memo"
)

type workloadDef struct {
	name, why string
}

// workloadDefs must equal BENCHMARK.json's list; TestBenchmarkJSON pins it.
var workloadDefs = []workloadDef{
	{wlSimWide, "one engine, 10,240-task layered DAG on 256 nodes under dataaware: the sim kernel, switch resharing, bucket upkeep, HDFS placement and YARN allocation do the work, frontends almost none"},
	{wlSimPaper, "the paper's four pipelines through the Cuneiform, CWL, DAX and Galaxy frontends: parse, dynamic re-evaluation, HEFT planning and provdb-backed provenance dominate, the kernel does little"},
	{wlServeOpen, "live HTTP server, memo off, seeded open-loop and closed-loop traffic over a Zipf pool of 100 specs: decode, parse, admit, Materialize and simulate are paid per run, the memo is bypassed"},
	{wlServeMemo, "byte-identical submissions with the memo table on: most task keys repeat, so lookup, commit and the splice path do the work and Materialize plus simulate shrink"},
}

// metricDef declares one metric. exact marks counts that must repeat bit for
// bit when the same seed and size run again on any commit that did not change
// the model.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
	exact              bool
}

// isExact reports whether the metric repeats exactly on the workload. The
// simulator is deterministic, so every exact count does on sim-*. On serve-*
// two runs execute at once and the overload steps refuse by timing, so only
// what the first closed-loop segment fixes does: the memo table is asked once
// per task whatever the interleaving.
func isExact(d metricDef, workload string) bool {
	if workload == wlServeOpen || workload == wlServeMemo {
		return d.name == "memo.lookups"
	}
	return d.exact
}

// endToEnd is what a user of `hiway sim` or `hiway serve` sees. Every
// workload reports every one of them, so each is defined for both: a run is
// one workflow brought from its frontend source (or HTTP body) to a terminal
// state with its provenance flushed. Bounds are about three times the spread
// ten runs on ten seeds showed on the reference box, which drifts (README.md,
// "What is bounded"); the benchmark contract caps them at 0.25.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "tasks_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "runs_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "ttt_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "ttt_ms_p95", unit: "ms", better: "lower", bound: 0.25},
	{name: "query_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "alloc_kb_per_task", unit: "KB", better: "lower", bound: 0.03},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
}

func stepMetrics() []metricDef {
	var out []metricDef
	for r := 1; r <= 4; r++ {
		p := fmt.Sprintf("service.r%d.", r)
		for _, name := range stepQuantiles {
			out = append(out, metricDef{name: p + name, unit: "ms", better: "lower"})
		}
		out = append(out,
			metricDef{name: p + "refused", unit: "count", better: "lower"},
			metricDef{name: p + "backlog_end", unit: "count", better: "lower"},
		)
	}
	return out
}

// perLayer is the traced run's table. Times are per iteration (sim-*) or per
// run (serve-*); a metric that does not apply to a workload reads 0 there.
var perLayer = append([]metricDef{
	{name: "lang.parse_ms", unit: "ms", better: "lower"},
	{name: "lang.on_complete_ms", unit: "ms", better: "lower"},
	{name: "lang.on_complete_calls", unit: "count", better: "lower", exact: true},
	{name: "lang.cuneiform_on_complete_share", unit: "ratio", better: "lower"},
	{name: "wf.dag_build_ms", unit: "ms", better: "lower"},
	{name: "recipes.materialize_ms", unit: "ms", better: "lower"},
	{name: "workloads.stage_ms", unit: "ms", better: "lower"},
	{name: "scheduler.select_ms", unit: "ms", better: "lower"},
	{name: "scheduler.select_calls", unit: "count", better: "lower", exact: true},
	{name: "scheduler.assign_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "scheduler.ready_ms", unit: "ms", better: "lower"},
	{name: "scheduler.plan_ms", unit: "ms", better: "lower"},
	{name: "hdfs.locality_ms", unit: "ms", better: "lower"},
	{name: "hdfs.locality_calls", unit: "count", better: "lower", exact: true},
	{name: "hdfs.put_us", unit: "us", better: "lower"},
	{name: "provenance.append_ms", unit: "ms", better: "lower"},
	{name: "provenance.events", unit: "count", better: "lower", exact: true},
	{name: "provenance.batches", unit: "count", better: "lower", exact: true},
	{name: "provenance.estimate_ms", unit: "ms", better: "lower"},
	{name: "provenance.estimate_calls", unit: "count", better: "lower", exact: true},
	{name: "provenance.load_ms", unit: "ms", better: "lower"},
	{name: "provenance.flush_ms", unit: "ms", better: "lower"},
	{name: "core.loop_ms", unit: "ms", better: "lower"},
	{name: "core.loop_self_ms", unit: "ms", better: "lower"},
	{name: "core.makespan_s", unit: "s", better: "lower", exact: true},
	{name: "core.attempts", unit: "count", better: "lower", exact: true},
	{name: "sim.events", unit: "count", better: "lower", exact: true},
	{name: "sim.events_per_s", unit: "1/s", better: "higher"},
	{name: "sim.max_queue_depth", unit: "count", better: "lower", exact: true},
	{name: "sim.switch_reshares", unit: "count", better: "lower", exact: true},
	{name: "sim.queue_ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.reshare_us_per_op", unit: "us", better: "lower"},
	{name: "yarn.requests", unit: "count", better: "lower", exact: true},
	{name: "yarn.allocations", unit: "count", better: "lower", exact: true},
	{name: "yarn.alloc_us", unit: "us", better: "lower"},
	{name: "service.handler_ms_p50", unit: "ms", better: "lower"},
	{name: "service.http_overhead_ms", unit: "ms", better: "lower"},
	{name: "service.queue_wait_ms_p50", unit: "ms", better: "lower"},
	{name: "service.queue_wait_ms_p95", unit: "ms", better: "lower"},
	{name: "service.exec_ms_p50", unit: "ms", better: "lower"},
	{name: "service.exec_ms_p95", unit: "ms", better: "lower"},
	{name: "service.rejected", unit: "count", better: "lower"},
	{name: "service.peak_running", unit: "count", better: "higher"},
	{name: "service.gen_lag_ms_p50", unit: "ms", better: "lower"},
	{name: "service.gen_lag_ms_p95", unit: "ms", better: "lower"},
	{name: "service.max_rate_ok", unit: "1/s", better: "higher"},
	{name: "service.retained_kb_per_run", unit: "KB", better: "lower"},
	{name: "service.list_ms", unit: "ms", better: "lower"},
	{name: "service.drain_ms", unit: "ms", better: "lower"},
	{name: "service.flush_prov_ms", unit: "ms", better: "lower"},
	{name: "memo.lookups", unit: "count", better: "higher", exact: true},
	{name: "memo.hit_ratio", unit: "ratio", better: "higher"},
	{name: "memo.commits", unit: "count", better: "lower"},
	{name: "memo.evictions", unit: "count", better: "lower"},
	{name: "memo.cpu_seconds_saved", unit: "s", better: "higher"},
	{name: "memo.lookup_ns", unit: "ns", better: "lower"},
	{name: "memo.commit_ns", unit: "ns", better: "lower"},
	{name: "provdb.put_us", unit: "us", better: "lower"},
	{name: "provdb.sync_ms", unit: "ms", better: "lower"},
	{name: "provdb.reopen_ms", unit: "ms", better: "lower"},
	{name: "provdb.bytes_per_event", unit: "B", better: "lower"},
	{name: "go.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.heap_live_mb", unit: "MB", better: "lower"},
	{name: "harness.submit_ms_p50", unit: "ms", better: "lower"},
	{name: "harness.ref_kernel_ms", unit: "ms", better: "lower"},
	{name: "harness.iter_ms_p75", unit: "ms", better: "lower"},
	{name: "harness.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "harness.accounted_share", unit: "ratio", better: "higher"},
	{name: "harness.failed_share", unit: "ratio", better: "lower"},
}, stepMetrics()...)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's values and refuses names the tables above do
// not declare, so the emitted set cannot drift from BENCHMARK.json.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			m.values[name] = v
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// export returns every declared metric, unset ones as 0.
func (m *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metricValue{Value: m.values[d.name], Unit: d.unit}
	}
	return out
}

// --- statistics ---

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank percentile of xs, 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is how the acceptance procedure measures spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
