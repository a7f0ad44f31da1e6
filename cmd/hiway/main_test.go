package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hiway/internal/chaos"
	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/lang"
	"hiway/internal/obs"
	"hiway/internal/provdb"
	"hiway/internal/provenance"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/service"
)

// TestMain doubles as a helper process: when HIWAY_SIM_HELPER is set, the
// test binary runs `sim` with the \x1f-separated arguments instead of the
// test suite, so the shard-determinism test can capture a whole run's
// stdout.
func TestMain(m *testing.M) {
	if spec := os.Getenv("HIWAY_SIM_HELPER"); spec != "" {
		if err := runSim(strings.Split(spec, "\x1f")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestDetectLang(t *testing.T) {
	cases := map[string]string{
		"wf.cf":        "cuneiform",
		"wf.cuneiform": "cuneiform",
		"wf.dax":       "dax",
		"wf.xml":       "dax",
		"wf.ga":        "galaxy",
		"wf.cwl":       "cwl",
		"run.jsonl":    "trace",
		"run.trace":    "trace",
		"noext":        "cuneiform",
	}
	for path, want := range cases {
		if got := lang.Detect(path, ""); got != want {
			t.Errorf("lang.Detect(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestParseBinds(t *testing.T) {
	m, err := parseBinds([]string{"reads=/data/a.fq", "genome=/ref/mm10"})
	if err != nil {
		t.Fatal(err)
	}
	if m["reads"] != "/data/a.fq" || m["genome"] != "/ref/mm10" {
		t.Fatalf("binds = %v", m)
	}
	if _, err := parseBinds([]string{"nope"}); err == nil {
		t.Fatal("malformed bind accepted")
	}
}

func TestParseTenantProfiles(t *testing.T) {
	for _, tc := range []struct {
		specs []string
		want  []service.TenantProfile
		err   string // substring of the error; "" means success
	}{
		{specs: []string{"genomics"}, want: []service.TenantProfile{{Name: "genomics"}}},
		{
			specs: []string{"genomics,weight=2,containers=12,inflight=4,rate=0.5,burst=3,memo=off", "bg,weight=0,memo=on"},
			want: []service.TenantProfile{
				{Name: "genomics", Weight: 2, MaxContainers: 12, MaxInFlight: 4, RatePerSec: 0.5, Burst: 3, MemoOptOut: true},
				{Name: "bg"},
			},
		},
		{specs: []string{",weight=1"}, err: "empty name"},
		{specs: []string{"a,weight"}, err: `field "weight" (want key=value)`},
		{specs: []string{"a,color=red"}, err: "want weight, containers, inflight, rate, burst, or memo"},
		{specs: []string{"a,weight=x"}, err: `field "weight=x"`},
		{specs: []string{"a,containers=x"}, err: `field "containers=x"`},
		{specs: []string{"a,inflight=x"}, err: `field "inflight=x"`},
		{specs: []string{"a,rate=x"}, err: `field "rate=x"`},
		{specs: []string{"a,burst=x"}, err: `field "burst=x"`},
		{specs: []string{"a,memo=maybe"}, err: "want on or off"},
		{specs: []string{"ok", "a,weight=x"}, err: `field "weight=x"`},
	} {
		got, err := parseTenantProfiles(tc.specs)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%q: error %v, want one containing %q", tc.specs, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.specs, err)
		} else if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: got %+v, want %+v", tc.specs, got, tc.want)
		}
	}
}

// TestUsageNamesEverySubcommand reads the subcommands main dispatches on
// from its switch and requires the usage text to document each one.
func TestUsageNamesEverySubcommand(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var cmds []string
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "main" {
			ast.Inspect(fn, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							cmds = append(cmds, strings.Trim(lit.Value, `"`))
						}
					}
				}
				return true
			})
		}
	}
	if len(cmds) < 8 {
		t.Fatalf("found only %d dispatched subcommands: %v", len(cmds), cmds)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	usage()
	os.Stderr = stderr
	w.Close()
	text, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range cmds {
		if strings.HasPrefix(cmd, "-") || cmd == "help" {
			continue
		}
		if !strings.Contains(string(text), "  hiway "+cmd+" ") {
			t.Errorf("usage does not document `hiway %s`", cmd)
		}
	}
}

func TestBuildDriverLanguages(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cf := write("a.cf", `deftask t( out : ~x ) in bash *{ true }*`+"\n"+`t( x: "1" );`)
	daxFile := write("a.dax", `<adag name="x"><job id="J" name="t" runtime="1"><uses file="o" link="output"/></job></adag>`)
	traceFile := write("a.jsonl", `{"type":"task-end","taskId":1,"signature":"t","outputs":[{"path":"o","param":"out"}]}`)

	for _, p := range []string{cf, daxFile, traceFile} {
		d, _, err := buildDriver(p, "", nil)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if _, err := d.Parse(); err != nil {
			t.Fatalf("%s parse: %v", p, err)
		}
	}
	if _, _, err := buildDriver(filepath.Join(dir, "missing.cf"), "cuneiform", nil); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, _, err := buildDriver(cf, "klingon", nil); err == nil {
		t.Fatal("unknown language accepted")
	}
}

func TestRunSimEndToEnd(t *testing.T) {
	dir := t.TempDir()
	wfPath := filepath.Join(dir, "demo.cf")
	src := `deftask upper( out : inp ) @cpu 2 in bash *{ tr a-z A-Z < $inp > $out }*
upper( inp: "words.txt" );`
	if err := os.WriteFile(wfPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "run.jsonl")
	err := runSim([]string{"-w", wfPath, "-nodes", "2", "-input", "words.txt=5", "-prov", tracePath})
	if err != nil {
		t.Fatal(err)
	}
	// The written trace replays.
	if err := runSim([]string{"-w", tracePath, "-lang", "trace", "-input", "words.txt=5"}); err != nil {
		t.Fatalf("trace replay: %v", err)
	}
	// Error paths.
	if err := runSim([]string{}); err == nil {
		t.Fatal("missing -w accepted")
	}
	if err := runSim([]string{"-w", wfPath, "-input", "bad"}); err == nil {
		t.Fatal("malformed -input accepted")
	}
	for _, size := range []string{"notanumber", "Inf", "-Inf", "NaN"} {
		if err := runSim([]string{"-w", wfPath, "-input", "x=" + size}); err == nil {
			t.Fatalf("-input size %s accepted", size)
		}
	}
	if err := runSim([]string{"-w", wfPath, "-policy", "mystery", "-input", "words.txt=5"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestSimRefusesFilesOverTheBlockBound: a staged input or a task output
// over hdfs.MaxBlocksPerFile ends the run with an error that names the
// bound, instead of laying out billions of blocks.
func TestSimRefusesFilesOverTheBlockBound(t *testing.T) {
	dir := t.TempDir()
	demo := filepath.Join(dir, "demo.cf")
	if err := os.WriteFile(demo, []byte("deftask gen( out : x ) @cpu 1 in bash *{ synthesize }*\ngen( x: \"seed.txt\" );\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runSim([]string{"-w", demo, "-input", "seed.txt=1e12"})
	if err == nil || !strings.Contains(err.Error(), "over 65536 blocks") {
		t.Fatalf("a 1e12 MB input: %v", err)
	}
	big := filepath.Join(dir, "big.cwl")
	if err := os.WriteFile(big, []byte(`{"cwlVersion": "v1.2", "class": "CommandLineTool", "id": "huge",
	  "hints": [{"class": "hiway:Profile", "cpuSeconds": 10, "outSizeMB": {"out": 1e15}}],
	  "inputs": [], "outputs": [{"id": "out", "type": "File"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = runSim([]string{"-w", big})
	if err == nil || !strings.Contains(err.Error(), "failed 4 times") || !strings.Contains(err.Error(), "over 65536 blocks") {
		t.Fatalf("a CWL output of 1e15 MB: %v", err)
	}
}

// TestStalledSimUnderObservabilityEnds hangs one attempt of a three-task
// workflow, with no deadlines, on a shard that records observability. The
// counter-sample tick must not keep the engine alive: the engine quiesces
// and the AM reports the stall, as it does without observability. The
// engine is stepped under a bound, so a tick that re-arms forever fails the
// test instead of hanging it.
func TestStalledSimUnderObservabilityEnds(t *testing.T) {
	wfPath := filepath.Join(t.TempDir(), "chaos.cf")
	src := `deftask gen( out : ~x ) @cpu 30 in bash *{ synthesize }*
deftask join( out : a b ) @cpu 10 in bash *{ combine }*
join( a: gen( x: "1" ) b: gen( x: "2" ) );`
	if err := os.WriteFile(wfPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	driver, _, err := buildDriver(wfPath, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &recipes.Recipe{Name: "stall", Groups: []recipes.NodeGroup{{Count: 4, Spec: cluster.M3Large()}},
		SwitchMBps: 2000, Seed: 1}
	eng, env, err := r.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(eng.Now)
	env.Obs = o
	env.RM.SetObs(o)
	plan, err := chaos.Parse("hang=gen@0:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	plan.Arm(eng, env.RM, env.FS, env.Cluster)
	sched, err := scheduler.New(scheduler.PolicyDataAware, scheduler.Deps{Locality: env.FS, Estimator: env.Prov, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	s := &simShard{driver: driver, eng: eng, env: env, sched: sched, cfg: core.Config{Chaos: plan}, o: o}
	am, err := s.launch()
	if err != nil {
		t.Fatal(err)
	}
	const bound = 10000 // the run itself takes a few dozen events
	for steps := 0; eng.Step(); steps++ {
		if steps == bound {
			t.Fatalf("%d events still pending after %d steps, at t=%gs: the stalled run never ends",
				eng.Pending(), bound, eng.Now())
		}
	}
	if _, err := am.Report(); err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("report error = %v, want the stall", err)
	}
}

// TestRunSimReplaysRecoveredTraces re-executes (§3.5) the traces of runs
// that exercised fault tolerance — a crashed attempt its retry recovered,
// and a hung attempt raced by a speculative duplicate — and requires the
// replay to complete the same tasks the recorded run completed.
func TestRunSimReplaysRecoveredTraces(t *testing.T) {
	for name, faults := range map[string][]string{
		"retry":       {"-chaos", "crashrate=0.4", "-chaos-seed", "5"},
		"speculation": {"-chaos", "hang=gen@0:1", "-timeout-floor", "20", "-speculate"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			recorded, replayed := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "r.jsonl")
			args := []string{"-w", filepath.Join("..", "..", "examples", "demo.cf"), "-input", "seed.txt=64", "-prov", recorded}
			if err := runSim(append(args, faults...)); err != nil {
				t.Fatal(err)
			}
			want, failedEnds := completedTasks(t, recorded)
			if failedEnds == 0 {
				t.Fatalf("the recorded run ended no attempt unsuccessfully; %v injects nothing", faults)
			}
			if err := runSim([]string{"-w", recorded, "-input", "seed.txt=64", "-prov", replayed}); err != nil {
				t.Fatalf("replay: %v", err)
			}
			if got, _ := completedTasks(t, replayed); !reflect.DeepEqual(got, want) {
				t.Fatalf("replay completed %v, the recorded run %v", got, want)
			}
		})
	}
}

// TestSimProvWritesAFreshTrace pins -prov's file semantics: a second run into
// the same path replaces the first run's trace (appending would leave two
// runs that share workflow and task IDs, which does not replay), and the
// trace being replayed may be the one -prov names. Task IDs are per run, so
// equal runs write equal bytes in one process.
func TestSimProvWritesAFreshTrace(t *testing.T) {
	dir := t.TempDir()
	sim := func(args ...string) {
		t.Helper()
		if err := runSim(args); err != nil {
			t.Fatalf("sim %v: %v", args, err)
		}
	}
	demo := filepath.Join("..", "..", "examples", "demo.cf")
	trace, once := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "once.jsonl")
	sim("-w", demo, "-input", "seed.txt=64", "-prov", once)
	sim("-w", demo, "-input", "seed.txt=64", "-prov", trace)
	sim("-w", demo, "-input", "seed.txt=64", "-prov", trace)
	got, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(once)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("two runs into one -prov path left %d bytes; one run writes %d", len(got), len(want))
	}
	if err := runSim([]string{"-w", trace, "-input", "seed.txt=64"}); err != nil {
		t.Fatalf("replaying the trace: %v", err)
	}
	sim("-w", trace, "-input", "seed.txt=64", "-prov", trace)
	if done, _ := completedTasks(t, trace); len(done) != 3 {
		t.Fatalf("replaying a trace into its own path recorded %v, want the 3 demo tasks", done)
	}
}

// TestLoadAndElasticTails drives the tail `load` and `elastic` share: a
// -metrics snapshot written twice into one path holds one run's bytes, and
// -ladder -json writes one point per rung.
func TestLoadAndElasticTails(t *testing.T) {
	dir := t.TempDir()
	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range []struct {
		run  func([]string) error
		args []string
	}{
		{runLoad, []string{"-duration", "300"}},
		{runElastic, []string{"-duration", "300", "-autoscale", "reactive"}},
	} {
		prom := filepath.Join(dir, "m.prom")
		if err := c.run(append(c.args, "-metrics", prom)); err != nil {
			t.Fatal(err)
		}
		once := read(prom)
		if err := c.run(append(c.args, "-metrics", prom)); err != nil {
			t.Fatal(err)
		}
		if again := read(prom); !bytes.Equal(again, once) || !bytes.Contains(once, []byte("hiway_svc_admitted_total")) {
			t.Fatalf("%v: a second -metrics run left %d bytes, the first wrote %d", c.args, len(again), len(once))
		}
	}
	for _, c := range []struct {
		run    func([]string) error
		points int
	}{{runLoad, 3}, {runElastic, 6}} {
		ladder := filepath.Join(dir, "ladder.json")
		if err := c.run([]string{"-ladder", "-json", ladder}); err != nil {
			t.Fatal(err)
		}
		var doc struct{ Points []json.RawMessage }
		if err := json.Unmarshal(read(ladder), &doc); err != nil || len(doc.Points) != c.points {
			t.Fatalf("ladder JSON: %d points, %v; want %d", len(doc.Points), err, c.points)
		}
	}
}

// TestFailedSimWritesItsArtifacts: a run that fails still writes every
// artifact asked for, then returns its error. Its trace holds every failed
// attempt's task end and a workflow-end without succeeded. A setup error
// writes nothing.
func TestFailedSimWritesItsArtifacts(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	demo := filepath.Join("..", "..", "examples", "demo.cf")
	err := runSim([]string{"-w", demo, "-input", "seed.txt=64", "-chaos", "crashrate=0.5", "-chaos-seed", "1",
		"-prov", at("f.jsonl"), "-trace", at("f.json"), "-metrics", at("f.prom"), "-decisions", at("f.log"), "-timeline", at("f.csv")})
	if err == nil || err.Error() != "core: task 1 (gen) failed 4 times (last on node-04): injected fault" {
		t.Fatalf("error %v, want the retry exhaustion", err)
	}
	for _, name := range []string{"f.json", "f.prom", "f.log", "f.csv"} {
		if st, err := os.Stat(at(name)); err != nil || st.Size() == 0 {
			t.Fatalf("%s: %v, want a non-empty file", name, err)
		}
	}
	raw, err := os.ReadFile(at("f.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := provenance.ParseTrace(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, ev := range evs {
		if ev.Type == provenance.TaskEnd && ev.Error != "" {
			failed++
		}
	}
	if last := evs[len(evs)-1]; failed != 4 || last.Type != provenance.WorkflowEnd || last.Succeeded {
		t.Fatalf("%d failed task ends and a last event %+v; want 4 and a failed workflow-end", failed, last)
	}
	if err := runSim([]string{"-w", at("missing.cf"), "-prov", at("m.jsonl")}); err == nil {
		t.Fatal("a missing workflow ran")
	}
	if _, err := os.Stat(at("m.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("a setup error wrote its trace: %v", err)
	}
}

// TestZeroIsTakenAsGiven: -retry-limit 0 drops every rejected submission
// without a retry, where 1 retries it once, under `load` and under `serve
// -deterministic`; and -chaos-seed 0 is a seed of its own, not another
// spelling of 1.
func TestZeroIsTakenAsGiven(t *testing.T) {
	dir := t.TempDir()
	metrics := func(run func([]string) error, args ...string) map[string]float64 {
		t.Helper()
		path := filepath.Join(dir, "m.prom")
		if err := run(append(args, "-metrics", path)); err != nil {
			t.Fatal(err)
		}
		return promTotals(t, path)
	}
	for _, c := range []struct {
		run               func([]string) error
		args              []string
		rejected, dropped string
	}{
		{runLoad, []string{"-duration", "600", "-rate", "4"}, "hiway_svc_rejections_total", "hiway_svc_dropped_total"},
		{runServe, []string{"-deterministic", "-rate", "2", "-max-queue", "2", "-max-concurrent", "2"},
			"hiway_serve_rejected_total", "hiway_serve_dropped_total"},
	} {
		for limit, retried := range []bool{false, true} {
			m := metrics(c.run, append(c.args, "-retry-limit", fmt.Sprint(limit))...)
			rejected, dropped := m[c.rejected], m[c.dropped]
			if dropped == 0 || (rejected > dropped) != retried {
				t.Fatalf("%v -retry-limit %d: %g rejections, %g dropped; want retries %v", c.args, limit, rejected, dropped, retried)
			}
		}
	}
	chaos := []string{"-duration", "600", "-chaos", "crashrate=0.3", "-chaos-seed"}
	if zero, one := metrics(runLoad, append(chaos, "0")...), metrics(runLoad, append(chaos, "1")...); reflect.DeepEqual(zero, one) {
		t.Fatalf("-chaos-seed 0 ran as -chaos-seed 1: %v", zero)
	}
}

// promTotals sums each metric family of a Prometheus text snapshot over its
// labels.
func promTotals(t *testing.T, path string) map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	totals := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ = strings.Cut(name, "{")
		var v float64
		if _, err := fmt.Sscan(value, &v); err != nil {
			t.Fatalf("%s: %q: %v", path, line, err)
		}
		totals[name] += v
	}
	return totals
}

// completedTasks reads a provenance trace and returns its successful task
// ends as a sorted "signature → outputs" multiset, plus the number of
// unsuccessful ends.
func completedTasks(t *testing.T, path string) ([]string, int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := provenance.ParseTrace(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	var done []string
	failed := 0
	for _, ev := range evs {
		if ev.Type != provenance.TaskEnd {
			continue
		}
		if ev.ExitCode != 0 || ev.Error != "" {
			failed++
			continue
		}
		var outs []string
		for _, o := range ev.Outputs {
			outs = append(outs, o.Path)
		}
		done = append(done, ev.Signature+" → "+strings.Join(outs, ","))
	}
	sort.Strings(done)
	return done, failed
}

// TestRunSimObservability exercises the -trace/-metrics/-decisions outputs:
// the Chrome export must be valid JSON with the full span taxonomy, the
// metrics snapshot must carry the core counters, and the decision log must
// name the policy.
func TestRunSimObservability(t *testing.T) {
	dir := t.TempDir()
	wfPath := filepath.Join(dir, "demo.cf")
	src := `deftask upper( out : inp ) @cpu 2 in bash *{ tr a-z A-Z < $inp > $out }*
upper( inp: "words.txt" );`
	if err := os.WriteFile(wfPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "run.json")
	metricsPath := filepath.Join(dir, "run.prom")
	decisionsPath := filepath.Join(dir, "decisions.log")
	err := runSim([]string{"-w", wfPath, "-nodes", "2", "-input", "words.txt=5",
		"-trace", tracePath, "-metrics", metricsPath, "-decisions", decisionsPath})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	cats := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		cats[ev.Cat] = true
	}
	for _, want := range []string{"workflow", "task", "attempt", "container", "phase"} {
		if !cats[want] {
			t.Errorf("trace missing %q spans (cats: %v)", want, cats)
		}
	}

	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE hiway_core_attempts_total counter",
		"hiway_yarn_containers_allocated_total",
		"hiway_yarn_allocation_latency_seconds_bucket",
		"hiway_sched_assignments_total",
		"hiway_sim_events_total",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics missing %q:\n%s", want, prom)
		}
	}

	dec, err := os.ReadFile(decisionsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dec), "dataaware") {
		t.Errorf("decision log missing policy name:\n%s", dec)
	}
}

func TestRunInspect(t *testing.T) {
	dir := t.TempDir()
	daxPath := filepath.Join(dir, "wf.dax")
	src := `<adag name="x">
  <job id="A" name="first" runtime="10"><uses file="in" link="input"/><uses file="mid" link="output" sizeMB="5"/></job>
  <job id="B" name="second" runtime="20"><uses file="mid" link="input"/><uses file="out" link="output"/></job>
</adag>`
	if err := os.WriteFile(daxPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runInspect([]string{"-w", daxPath}); err != nil {
		t.Fatal(err)
	}
	// Iterative languages cannot be inspected statically.
	cfPath := filepath.Join(dir, "wf.cf")
	os.WriteFile(cfPath, []byte(`deftask t( out : ~x ) in bash *{ true }*`+"\n"+`t( x: "1" );`), 0o644)
	if err := runInspect([]string{"-w", cfPath}); err == nil {
		t.Fatal("inspecting a Cuneiform workflow must fail")
	}
	if err := runInspect([]string{}); err == nil {
		t.Fatal("missing -w accepted")
	}
}

func TestRunSimGanttAndTimeline(t *testing.T) {
	dir := t.TempDir()
	wfPath := filepath.Join(dir, "demo.cf")
	src := `deftask upper( out : inp ) @cpu 2 in bash *{ x }*
upper( inp: "words.txt" );`
	if err := os.WriteFile(wfPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	timeline := filepath.Join(dir, "t.csv")
	err := runSim([]string{"-w", wfPath, "-input", "words.txt=5", "-gantt", "-timeline", timeline})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(timeline)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty timeline CSV")
	}
}

func TestRunLocalEndToEnd(t *testing.T) {
	dir := t.TempDir()
	wfPath := filepath.Join(dir, "demo.cf")
	src := `deftask hello( out : ~name ) in bash *{ echo "hi $name" > $out }*
hello( name: "world" );`
	if err := os.WriteFile(wfPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(dir, "work")
	if err := runLocal([]string{"-w", wfPath, "-workdir", work}); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(work, "data", "demo", "hello_*", "out"))
	if len(matches) != 1 {
		t.Fatalf("output files = %v", matches)
	}
	data, _ := os.ReadFile(matches[0])
	if string(data) != "hi world\n" {
		t.Fatalf("output = %q", data)
	}
	if err := runLocal([]string{}); err == nil {
		t.Fatal("missing -w accepted")
	}
}

func TestRunProv(t *testing.T) {
	dir := t.TempDir()
	wfPath := filepath.Join(dir, "demo.cf")
	src := `deftask t( out : ~x ) @cpu 1 in bash *{ y }*
t( x: "1" );`
	if err := os.WriteFile(wfPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "run.jsonl")
	if err := runSim([]string{"-w", wfPath, "-prov", tracePath}); err != nil {
		t.Fatal(err)
	}
	if err := runProv([]string{"-trace", tracePath}); err != nil {
		t.Fatal(err)
	}
	// Error paths.
	if err := runProv([]string{}); err == nil {
		t.Fatal("missing source accepted")
	}
	if err := runProv([]string{"-trace", tracePath, "-db", "x"}); err == nil {
		t.Fatal("both sources accepted")
	}
	if err := runProv([]string{"-trace", filepath.Join(dir, "ghost.jsonl")}); err == nil {
		t.Fatal("missing trace accepted")
	}
	// provdb-backed path.
	dbPath := filepath.Join(dir, "prov.db")
	db, err := provdb.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	store := provenance.NewDBStore(db)
	store.Append(provenance.Event{Type: provenance.WorkflowStart, WorkflowID: "w", WorkflowName: "n"})
	store.Append(provenance.Event{Type: provenance.TaskEnd, WorkflowID: "w", Signature: "s", Node: "n1", DurationSec: 3})
	store.Append(provenance.Event{Type: provenance.WorkflowEnd, WorkflowID: "w", DurationSec: 4, Succeeded: true})
	store.Close()
	if err := runProv([]string{"-db", dbPath}); err != nil {
		t.Fatal(err)
	}
	// -db reads: a file that is not a provdb log is refused and left as it
	// was, and a path that is not there stays not there.
	trace, _ := os.ReadFile(tracePath)
	if err := runProv([]string{"-db", tracePath}); err == nil || !strings.Contains(err.Error(), "is not a provdb log") {
		t.Fatalf("-db on a JSONL trace: %v, want it refused as not a provdb log", err)
	}
	if after, _ := os.ReadFile(tracePath); !bytes.Equal(after, trace) || len(trace) == 0 {
		t.Fatalf("-db changed the trace it was given: %d → %d bytes", len(trace), len(after))
	}
	ghost := filepath.Join(dir, "ghost.db")
	if err := runProv([]string{"-db", ghost}); err == nil {
		t.Fatal("-db on a missing file accepted")
	}
	if _, err := os.Stat(ghost); !os.IsNotExist(err) {
		t.Fatalf("-db on a missing file left something there: %v", err)
	}
}

// TestSimShardDeterminism pins the parallel-shard contract end to end: for
// every scheduling policy, a multi-workflow `hiway sim` must produce
// byte-identical stdout, merged provenance trace, and metrics snapshot
// whether the shards run serially (-shard-workers 1) or on parallel workers.
// Each run is a child process (see TestMain) whose stdout the test captures;
// output paths are normalized before comparison since the runs write to
// different directories.
func TestSimShardDeterminism(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	type run struct{ stdout, prov, metrics []byte }
	sim := func(name string, args ...string) run {
		sub := filepath.Join(dir, name)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		provPath := filepath.Join(sub, "run.jsonl")
		promPath := filepath.Join(sub, "run.prom")
		args = append(args, "-prov", provPath, "-metrics", promPath)
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "HIWAY_SIM_HELPER="+strings.Join(args, "\x1f"))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, stderr.String())
		}
		prov, err := os.ReadFile(provPath)
		if err != nil {
			t.Fatal(err)
		}
		metrics, err := os.ReadFile(promPath)
		if err != nil {
			t.Fatal(err)
		}
		out := bytes.ReplaceAll(stdout.Bytes(), []byte(sub), []byte("@OUT@"))
		return run{stdout: out, prov: prov, metrics: metrics}
	}
	same := func(what string, a, b run) {
		if !bytes.Equal(a.stdout, b.stdout) {
			t.Errorf("%s: stdout differs between serial and parallel shards:\n--- serial ---\n%s\n--- parallel ---\n%s",
				what, a.stdout, b.stdout)
		}
		if !bytes.Equal(a.prov, b.prov) {
			t.Errorf("%s: merged provenance trace differs between serial and parallel shards", what)
		}
		if !bytes.Equal(a.metrics, b.metrics) {
			t.Errorf("%s: metrics snapshot differs between serial and parallel shards", what)
		}
	}

	// Cuneiform reveals each step of this chain only when its predecessor
	// completes, so every step's task ID is drawn mid-run, by the shard's own
	// driver. Every parallel run must match the serial one, not just most
	// of them.
	chain := "deftask step( out : inp ) @cpu 5 in bash *{ step $inp > $out }*\nlet s0 = step( inp: \"seed.txt\" );\n"
	for i := 1; i < 25; i++ {
		chain += fmt.Sprintf("let s%d = step( inp: s%d );\n", i, i-1)
	}
	cf := write("chain.cf", chain+"s24;\n")
	cfArgs := func(workers string) []string {
		return []string{"-w", cf, "-w", cf, "-input", "seed.txt=64", "-nodes", "4", "-shard-workers", workers}
	}
	serial := sim("cf-w1", cfArgs("1")...)
	for rep := 0; rep < 5; rep++ {
		same(fmt.Sprintf("cuneiform run %d", rep), serial, sim(fmt.Sprintf("cf-w4-%d", rep), cfArgs("4")...))
	}

	wfA := write("alpha.dax", `<adag name="alpha">
  <job id="A" name="prep" runtime="2"><uses file="a1" link="output" size="8"/></job>
  <job id="B" name="crunch" runtime="5"><uses file="a1" link="input"/><uses file="a2" link="output" size="4"/></job>
  <child ref="B"><parent ref="A"/></child>
</adag>`)
	wfB := write("beta.dax", `<adag name="beta">
  <job id="X" name="scan" runtime="3"><uses file="b1" link="output" size="6"/></job>
  <job id="Y" name="merge" runtime="4"><uses file="b1" link="input"/><uses file="b2" link="output" size="2"/></job>
  <child ref="Y"><parent ref="X"/></child>
</adag>`)
	policies := []string{
		scheduler.PolicyFCFS, scheduler.PolicyDataAware, scheduler.PolicyRoundRobin,
		scheduler.PolicyHEFT, scheduler.PolicyAdaptiveGreedy,
	}
	for _, pol := range policies {
		var runs []run
		for _, workers := range []string{"1", "4"} {
			runs = append(runs, sim(pol+"-w"+workers,
				"-w", wfA, "-w", wfB, "-shard-workers", workers, "-nodes", "4", "-policy", pol))
		}
		same("policy "+pol, runs[0], runs[1])
		// Sanity: the merged trace holds both workflows, timestamp-ordered.
		evs, err := provenance.ParseTrace(string(runs[0].prov))
		if err != nil {
			t.Fatal(err)
		}
		wfs := map[string]bool{}
		last := -1.0
		for _, ev := range evs {
			wfs[ev.WorkflowName] = true
			if ev.Timestamp < last {
				t.Fatalf("policy %s: merged trace out of order (%f after %f)", pol, ev.Timestamp, last)
			}
			last = ev.Timestamp
		}
		if !wfs["alpha"] || !wfs["beta"] {
			t.Fatalf("policy %s: merged trace missing a workflow: %v", pol, wfs)
		}
	}
}

// TestRunPaper runs `hiway paper -exp table1` and checks it prints Table 1;
// an unknown experiment fails before anything runs.
func TestRunPaper(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = runPaper([]string{"-exp", "table1"})
	os.Stdout = stdout
	w.Close()
	text, readErr := io.ReadAll(r)
	if err != nil || readErr != nil {
		t.Fatal(err, readErr)
	}
	for _, want := range []string{"Table 1", "Cuneiform", "HEFT", "Montage"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("paper -exp table1 output lacks %q:\n%s", want, text)
		}
	}
	if err := runPaper([]string{"-exp", "fig7"}); err == nil || !strings.Contains(err.Error(), `unknown experiment "fig7"`) {
		t.Fatalf("paper -exp fig7 = %v, want an unknown-experiment error", err)
	}
}
