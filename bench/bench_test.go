package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"hiway/internal/cluster"
	"hiway/internal/hdfs"
	"hiway/internal/lang/cuneiform"
	"hiway/internal/obs"
	"hiway/internal/provenance"
	"hiway/internal/scheduler"
	"hiway/internal/sim"
	"hiway/internal/wf"
)

func testOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	dir := t.TempDir()
	seconds := 0.3
	if workload == wlServeOpen || workload == wlServeMemo {
		seconds = 0.5
	}
	return options{workload: workload, seed: 1, seconds: seconds, trace: trace, tiny: true, outDir: dir, tmpRoot: dir}
}

// plainLocality is a LocalityOracle without the CandidateOracle extension.
type plainLocality struct{}

func (plainLocality) LocalFraction([]string, string) float64 { return 0 }

// plainEstimator is an Estimator without the EstimateVersioner extension.
type plainEstimator struct{}

func (plainEstimator) LastRuntime(string, string) (float64, bool) { return 0, false }
func (plainEstimator) MeanRuntime(string) (float64, bool)         { return 0, false }

// plainStore is a Store without the BatchAppender extension.
type plainStore struct{ provenance.Store }

// TestWrappersKeepOptionalInterfaces checks each seam wrapper against the
// type assertions core and the policies make: a wrapper must answer every
// one exactly as the value it wraps does.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	c := &seamClock{}
	eng := sim.NewEngine()
	cl, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 100}, 2, cluster.M3Large())
	if err != nil {
		t.Fatal(err)
	}
	fs := hdfs.New(cl, hdfs.Config{}, 1)
	mgr, err := provenance.NewManager(provenance.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}

	for _, policy := range []string{scheduler.PolicyFCFS, scheduler.PolicyDataAware, scheduler.PolicyRoundRobin, scheduler.PolicyHEFT, scheduler.PolicyAdaptiveGreedy} {
		inner, err := scheduler.New(policy, scheduler.Deps{Locality: fs, Estimator: mgr})
		if err != nil {
			t.Fatal(err)
		}
		w := wrapScheduler(inner, c)
		_, innerPlans := inner.(scheduler.StaticPlanner)
		_, wrappedPlans := w.(scheduler.StaticPlanner)
		if innerPlans != wrappedPlans {
			t.Errorf("%s: StaticPlanner %v unwrapped, %v wrapped", policy, innerPlans, wrappedPlans)
		}
		_, innerReassigns := inner.(scheduler.Reassigner)
		_, wrappedReassigns := w.(scheduler.Reassigner)
		if innerReassigns != wrappedReassigns {
			t.Errorf("%s: Reassigner %v unwrapped, %v wrapped", policy, innerReassigns, wrappedReassigns)
		}
		for name, ok := range map[string]bool{
			"HealthAware":    func() bool { _, ok := w.(scheduler.HealthAware); return ok }(),
			"ObsAware":       func() bool { _, ok := w.(scheduler.ObsAware); return ok }(),
			"PredictorAware": func() bool { _, ok := w.(scheduler.PredictorAware); return ok }(),
		} {
			if !ok {
				t.Errorf("%s: wrapper dropped %s", policy, name)
			}
		}
		if w.Name() != inner.Name() {
			t.Errorf("%s: wrapper is named %q", policy, w.Name())
		}
	}

	if _, ok := wrapLocality(fs, c).(scheduler.CandidateOracle); !ok {
		t.Error("wrapped hdfs.FS lost CandidateOracle")
	}
	if _, ok := wrapLocality(plainLocality{}, c).(scheduler.CandidateOracle); ok {
		t.Error("wrapped plain oracle gained CandidateOracle")
	}
	if _, ok := wrapEstimator(mgr, c).(scheduler.EstimateVersioner); !ok {
		t.Error("wrapped provenance.Manager lost EstimateVersioner")
	}
	if _, ok := wrapEstimator(plainEstimator{}, c).(scheduler.EstimateVersioner); ok {
		t.Error("wrapped plain estimator gained EstimateVersioner")
	}
	if _, ok := wrapStore(provenance.NewMemStore(), c).(provenance.BatchAppender); !ok {
		t.Error("wrapped MemStore lost BatchAppender")
	}
	if _, ok := wrapStore(plainStore{provenance.NewMemStore()}, c).(provenance.BatchAppender); ok {
		t.Error("wrapped plain store gained BatchAppender")
	}
	if _, ok := wrapDriver(&wf.StaticBase{}, c).(wf.StaticDriver); !ok {
		t.Error("wrapped static driver lost StaticDriver")
	}
	if _, ok := wrapDriver(cuneiform.NewDriver("x", ""), c).(wf.StaticDriver); ok {
		t.Error("wrapped Cuneiform driver gained StaticDriver")
	}
}

// TestWrapperTransparency runs every simulator pipeline wrapped and
// unwrapped and requires identical digests — makespan, event count,
// containers and completed-task multiset — so a wrapper that silently changed
// scheduling (by dropping an optional interface, say) cannot go unnoticed.
func TestWrapperTransparency(t *testing.T) {
	for _, workload := range []string{wlSimWide, wlSimPaper} {
		legs := simPipelines(workload, tinySim, 1)
		dir := t.TempDir()
		plain, err := runIteration(legs, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer(func() float64 { return 0 })
		wrapped, err := runIteration(legs, dir, tr)
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain.legs {
			p, w := plain.legs[i], wrapped.legs[i]
			if p.digest() != w.digest() {
				t.Errorf("%s: wrapping changed the run:\n  plain   %s\n  wrapped %s", p.name, p.digest(), w.digest())
			}
			if p.events != w.events {
				t.Errorf("%s: sim.events %d plain, %d wrapped", p.name, p.events, w.events)
			}
			if w.seams == nil || w.seams.onCompleteN != int64(w.tasks) {
				t.Errorf("%s: wrapped run counted %v OnTaskComplete calls for %d tasks", p.name, w.seams, w.tasks)
			}
		}
		if spans, _, _ := tr.Counts(); spans == 0 {
			t.Errorf("%s: traced iteration recorded no spans", workload)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON requires the committed BENCHMARK.json to be exactly what
// the tables in metrics.go render to (`go run ./bench -benchmark-json`), and
// holds the tables to the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var rendered bytes.Buffer
	if err := printBenchmarkJSON(&rendered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, rendered.Bytes()) {
		t.Error("BENCHMARK.json differs from the tables in metrics.go; regenerate it with `go run ./bench -benchmark-json > BENCHMARK.json`")
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(committed))
	}
	// 4 + 22 × workloads runs, each a little longer than run_seconds, plus
	// two builds, must fit in 3420 s.
	if runs := 4 + 22*len(workloadDefs); runs*(runSeconds+5) > 3420-300 {
		t.Errorf("%d runs of %d s leave no room in 3420 s", runs, runSeconds)
	}

	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		checkName(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g", d.name, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		checkName(d.name)
		if !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.name, d.unit, d.better)
		}
	}
}

// TestSmoke runs every workload at its tiny size, untraced and traced, and
// checks what the benchmark promises: outputs correct and equal to the golden
// digests, exactly the declared metrics emitted, end-to-end metrics never 0,
// a second traced run on the same seed reproducing every exact count, and the
// workloads stressing the layers they were chosen for.
func TestSmoke(t *testing.T) {
	traced := map[string]*result{}
	for _, wl := range workloadDefs {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			plain, err := runWorkload(testOptions(t, wl.name, false))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, plain, endToEnd)
			for _, d := range endToEnd {
				if plain.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, want a positive number", d.name, plain.Metrics[d.name].Value)
				}
			}

			first, err := runWorkload(testOptions(t, wl.name, true))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, first, perLayer)
			traced[wl.name] = first
			second, err := runWorkload(testOptions(t, wl.name, true))
			if err != nil {
				t.Fatal(err)
			}
			if first.Digest != second.Digest || first.Digest != plain.Digest {
				t.Errorf("digests differ between runs on one seed:\n  %s\n  %s\n  %s", plain.Digest, first.Digest, second.Digest)
			}
			for _, d := range perLayer {
				if !isExact(d, wl.name) {
					continue
				}
				if a, b := first.Metrics[d.name].Value, second.Metrics[d.name].Value; a != b {
					t.Errorf("%s: %v then %v on the same seed", d.name, a, b)
				}
			}
			span, err := os.ReadFile(first.spanFile)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(span, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("span file %s: %d events, %v", first.spanFile, len(doc.TraceEvents), err)
			}
		})
	}
	if t.Failed() {
		return
	}

	// The workloads must stress different layers: sim-paper exercises the
	// frontends, the planner and the estimator, which sim-wide leaves idle,
	// and the server workloads differ in exactly the memo.
	metric := func(workload, name string) float64 { return traced[workload].Metrics[name].Value }
	for _, name := range []string{"lang.parse_ms", "lang.on_complete_calls", "lang.cuneiform_on_complete_share", "scheduler.plan_ms", "provenance.estimate_calls", "provenance.load_ms"} {
		if metric(wlSimPaper, name) <= 0 {
			t.Errorf("sim-paper: %s = %v", name, metric(wlSimPaper, name))
		}
	}
	for _, name := range []string{"scheduler.plan_ms", "provenance.estimate_calls", "lang.cuneiform_on_complete_share"} {
		if metric(wlSimWide, name) != 0 {
			t.Errorf("sim-wide: %s = %v, want 0", name, metric(wlSimWide, name))
		}
	}
	if metric(wlSimWide, "hdfs.locality_calls") <= 0 || metric(wlSimWide, "wf.dag_build_ms") <= 0 {
		t.Error("sim-wide: the data-aware policy asked the locality oracle nothing, or no DAG was built")
	}
	if v := metric(wlServeOpen, "memo.lookups"); v != 0 {
		t.Errorf("serve-open: %v memo lookups, want none", v)
	}
	if v := metric(wlServeMemo, "memo.hit_ratio"); v < 0.2 {
		t.Errorf("serve-memo: hit ratio %v at the tiny size, want repeats to hit", v)
	}
}

func checkResult(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct %v, %d of %d failed; notes: %v", r.Correct, r.Failed, r.Attempted, r.Notes)
	}
	if r.Golden != "match" {
		t.Errorf("golden: %s for digest %s; notes: %v", r.Golden, r.Digest, r.Notes)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: emitted %+v, declared unit %q", d.name, m, d.unit)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// TestCompare feeds compareSets two synthetic result sets and checks the
// three verdicts.
func TestCompare(t *testing.T) {
	set := func(tasksPerS, tttP95 []float64) *resultFile {
		rf := &resultFile{Env: &envStamp{}}
		for i := range tasksPerS {
			m := newMetricSet(endToEnd)
			for _, d := range endToEnd {
				m.set(d.name, 1)
			}
			m.set("tasks_per_s", tasksPerS[i])
			m.set("ttt_ms_p95", tttP95[i])
			rf.Runs = append(rf.Runs, &result{Workload: wlSimWide, Seed: int64(i + 1), Valid: true, Correct: true, Digest: "d", Metrics: m.export()})
		}
		return rf
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := make([]float64, len(steady))
	noisy := make([]float64, len(steady))
	for i, v := range steady {
		slower[i] = v * 0.6
		noisy[i] = v * (1 + 0.4*float64(i%2))
	}
	var out bytes.Buffer
	if compareSets(set(steady, steady), set(steady, steady), &out) {
		t.Errorf("equal sets compare as regressed:\n%s", out.String())
	}
	out.Reset()
	if !compareSets(set(steady, steady), set(slower, steady), &out) || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("40%% fewer tasks/s is not a regression:\n%s", out.String())
	}
	out.Reset()
	if compareSets(set(steady, steady), set(steady, noisy), &out) || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a 40%% spread is not unresolved:\n%s", out.String())
	}
	b := set(steady, steady)
	b.Runs[3].Digest = "other"
	out.Reset()
	if !compareSets(set(steady, steady), b, &out) || !strings.Contains(out.String(), "digests differ") {
		t.Errorf("a changed digest passes:\n%s", out.String())
	}
}

func TestZipfCycleIsEven(t *testing.T) {
	cycle := zipfCycle(10, zipfCycleLen)
	count := func(from, to int) [10]int {
		var c [10]int
		for _, k := range cycle[from:to] {
			c[k]++
		}
		return c
	}
	a, b := count(0, 300), count(2000, 2300)
	for k := range a {
		if d := a[k] - b[k]; d < -1 || d > 1 {
			t.Errorf("rank %d: %d picks in one window of 300, %d in another", k, a[k], b[k])
		}
	}
	if a[0] <= a[1] || a[1] <= a[9] {
		t.Errorf("picks do not fall with rank: %v", a)
	}
}

func TestRefKernelRuns(t *testing.T) {
	r := newRefSpeed(2)
	r.sample()
	if r.walls[0] <= 0 || r.factor() <= 0 {
		t.Errorf("kernel wall %v ms, factor %v", r.walls[0], r.factor())
	}
}
