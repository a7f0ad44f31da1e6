package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
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
	"hiway/internal/verify"
)

// hiway runs the CLI in-process on args and returns its exit code, stdout
// and stderr.
func hiway(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustRun runs the CLI in-process, fails the test unless it exits 0, and
// returns its stdout.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := hiway(args...)
	if code != 0 {
		t.Fatalf("hiway %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// mustFail runs the CLI in-process, fails the test unless it exits 1, and
// returns its stderr.
func mustFail(t *testing.T, args ...string) string {
	t.Helper()
	code, _, stderr := hiway(args...)
	if code != 1 {
		t.Fatalf("hiway %s: exit %d, want 1\n%s", strings.Join(args, " "), code, stderr)
	}
	return stderr
}

// demo is the README's diamond workflow.
var demo = filepath.Join("..", "..", "examples", "demo.cf")

// TestRunExitCodes pins run's exit codes: 2 for a usage error, 0 for help,
// 1 for a failed run. Each writes its text to stderr and nothing to stdout.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr []string
	}{
		{nil, 2, []string{"hiway — scientific workflow execution engine", "\n  hiway sim "}},
		{[]string{"nope"}, 2, []string{"hiway: unknown command \"nope\"\n", "\n  hiway sim "}},
		{[]string{"sim", "-bogus"}, 2, []string{"flag provided but not defined: -bogus\nUsage of sim:\n"}},
		{[]string{"sim", "-h"}, 0, []string{"Usage of sim:\n"}},
		{[]string{"sim"}, 1, []string{"hiway: missing -w workflow file\n"}},
		{[]string{"help"}, 0, []string{"\n  hiway serve "}},
	} {
		code, stdout, stderr := hiway(tc.args...)
		if code != tc.code || stdout != "" {
			t.Errorf("hiway %q: exit %d, stdout %q; want exit %d and no stdout", tc.args, code, stdout, tc.code)
		}
		for _, want := range tc.stderr {
			if !strings.Contains(stderr, want) {
				t.Errorf("hiway %q: stderr lacks %q:\n%s", tc.args, want, stderr)
			}
		}
	}
}

// TestRefusedFlagValues: a flag value its config would silently replace
// with a default, or a policy the service tier does not know, is a usage
// error that names the flag, and nothing runs.
func TestRefusedFlagValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"load", "-policy", "bogus"}, "-policy"},
		{[]string{"serve", "-deterministic", "-policy", "bogus"}, "-policy"},
		{[]string{"sim", "-w", demo, "-input", "seed.txt=64", "-policy", "bogus"}, "-policy"},
		{[]string{"load", "-nodes", "0"}, "-nodes"},
		{[]string{"load", "-rate", "-1"}, "-rate"},
		{[]string{"load", "-max-concurrent", "0"}, "-max-concurrent"},
		{[]string{"load", "-retry-after", "0"}, "-retry-after"},
		{[]string{"serve", "-deterministic", "-nodes", "0"}, "-nodes"},
		{[]string{"serve", "-deterministic", "-max-concurrent", "0"}, "-max-concurrent"},
		{[]string{"elastic", "-autoscale", "reactive", "-min-nodes", "5", "-max-nodes", "2"}, "-max-nodes"},
		{[]string{"verify", "-seeds", "-3"}, "-seeds"},
		{[]string{"verify", "-policy", "bogus", "-seeds", "1"}, "-policy"},
		{[]string{"verify", "-policy", "fcfs,bogus", "-seeds", "1"}, "-policy"},
		{[]string{"load", "-policy", "greedy"}, "-policy"},
		{[]string{"load", "-max-queue", "0"}, "-max-queue"},
		{[]string{"serve", "-deterministic", "-duration", "0"}, "-duration"},
		{[]string{"elastic", "-spot-every", "0"}, "-spot-every"},
		{[]string{"sim", "-w", demo, "-input", "seed.txt=64", "-nodes", "0"}, "-nodes"},
		{[]string{"sim", "-w", demo, "-input", "seed.txt=64", "-timeout-slack", "0"}, "-timeout-slack"},
		{[]string{"sim", "-w", demo, "-input", "seed.txt=64", "-shard-workers", "0"}, "-shard-workers"},
	} {
		code, stdout, stderr := hiway(tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "for flag "+tc.flag+":") ||
			!strings.Contains(stderr, "Usage of "+tc.args[0]+":") {
			t.Errorf("hiway %q: exit %d, stdout %q, stderr %q; want exit 2 naming %s", tc.args, code, stdout, stderr, tc.flag)
		}
	}
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

// TestHelpNamesEveryCommandAndFlag requires `hiway help` to give every
// command of the table a synopsis, and each synopsis to name exactly the
// flags that command's flag set defines.
func TestHelpNamesEveryCommandAndFlag(t *testing.T) {
	code, stdout, help := hiway("help")
	if code != 0 || stdout != "" {
		t.Fatalf("help: exit %d, stdout %q", code, stdout)
	}
	synopses := helpSynopses(help)
	if len(synopses) != len(commands) {
		t.Errorf("help has %d synopses, the table %d commands:\n%s", len(synopses), len(commands), help)
	}
	for _, c := range commands {
		fs := &flagSet{FlagSet: flag.NewFlagSet(c.name, flag.ContinueOnError)}
		c.flags(fs)
		want := map[string]bool{}
		fs.VisitAll(func(f *flag.Flag) { want[f.Name] = true })
		if got, ok := synopses[c.name]; !ok || !maps.Equal(got, want) {
			t.Errorf("`hiway %s` synopsis names flags %v; its flag set defines %v", c.name, got, want)
		}
	}
}

// synopsisFlag matches a flag named in a synopsis: -name after a space, "["
// or "(" or "|".
var synopsisFlag = regexp.MustCompile(`(?:^|[\s\[(|])-([a-z][a-z0-9-]*)`)

// helpSynopses reads the flags each `  hiway NAME` synopsis of a help text
// names, on its first line and on the continuation lines that open with "[".
func helpSynopses(help string) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	var flags map[string]bool
	for _, line := range strings.Split(help, "\n") {
		if rest, ok := strings.CutPrefix(line, "  hiway "); ok {
			flags = map[string]bool{}
			out[strings.Fields(rest)[0]] = flags
		} else if flags == nil || !strings.HasPrefix(strings.TrimSpace(line), "[") {
			flags = nil
			continue
		}
		for _, m := range synopsisFlag.FindAllStringSubmatch(line, -1) {
			flags[m[1]] = true
		}
	}
	return out
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
	mustRun(t, "sim", "-w", wfPath, "-nodes", "2", "-input", "words.txt=5", "-prov", tracePath)
	// The written trace replays.
	mustRun(t, "sim", "-w", tracePath, "-lang", "trace", "-input", "words.txt=5")
	// Error paths.
	mustFail(t, "sim")
	mustFail(t, "sim", "-w", wfPath, "-input", "bad")
	for _, size := range []string{"notanumber", "Inf", "-Inf", "NaN"} {
		mustFail(t, "sim", "-w", wfPath, "-input", "x="+size)
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
	if stderr := mustFail(t, "sim", "-w", demo, "-input", "seed.txt=1e12"); !strings.Contains(stderr, "over 65536 blocks") {
		t.Fatalf("a 1e12 MB input: %s", stderr)
	}
	big := filepath.Join(dir, "big.cwl")
	if err := os.WriteFile(big, []byte(`{"cwlVersion": "v1.2", "class": "CommandLineTool", "id": "huge",
	  "hints": [{"class": "hiway:Profile", "cpuSeconds": 10, "outSizeMB": {"out": 1e15}}],
	  "inputs": [], "outputs": [{"id": "out", "type": "File"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if stderr := mustFail(t, "sim", "-w", big); !strings.Contains(stderr, "failed 4 times") || !strings.Contains(stderr, "over 65536 blocks") {
		t.Fatalf("a CWL output of 1e15 MB: %s", stderr)
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
			mustRun(t, append([]string{"sim", "-w", demo, "-input", "seed.txt=64", "-prov", recorded}, faults...)...)
			want, failedEnds := completedTasks(t, recorded)
			if failedEnds == 0 {
				t.Fatalf("the recorded run ended no attempt unsuccessfully; %v injects nothing", faults)
			}
			mustRun(t, "sim", "-w", recorded, "-input", "seed.txt=64", "-prov", replayed)
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
		mustRun(t, append([]string{"sim"}, args...)...)
	}
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
	sim("-w", trace, "-input", "seed.txt=64")
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
	for _, args := range [][]string{
		{"load", "-duration", "300"},
		{"elastic", "-duration", "300", "-autoscale", "reactive"},
	} {
		prom := filepath.Join(dir, "m.prom")
		mustRun(t, append(args, "-metrics", prom)...)
		once := read(prom)
		mustRun(t, append(args, "-metrics", prom)...)
		if again := read(prom); !bytes.Equal(again, once) || !bytes.Contains(once, []byte("hiway_svc_admitted_total")) {
			t.Fatalf("%v: a second -metrics run left %d bytes, the first wrote %d", args, len(again), len(once))
		}
	}
	for _, c := range []struct {
		cmd    string
		points int
	}{{"load", 3}, {"elastic", 6}} {
		ladder := filepath.Join(dir, "ladder.json")
		mustRun(t, c.cmd, "-ladder", "-json", ladder)
		var doc struct{ Points []json.RawMessage }
		if err := json.Unmarshal(read(ladder), &doc); err != nil || len(doc.Points) != c.points {
			t.Fatalf("ladder JSON: %d points, %v; want %d", len(doc.Points), err, c.points)
		}
	}
}

// TestStalledLoadWritesItsMetrics: a load run in which a workflow stalls —
// its first bowtie2 attempt hangs and no timeout recovers it — still prints
// its report and writes -metrics, then exits 1 naming the stall.
func TestStalledLoadWritesItsMetrics(t *testing.T) {
	prom := filepath.Join(t.TempDir(), "hang.prom")
	code, stdout, stderr := hiway("load", "-duration", "300", "-chaos", "hang=bowtie2@0:1", "-metrics", prom)
	if code != 1 || !strings.Contains(stderr, "stalled") {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming the stall", code, stderr)
	}
	if !strings.Contains(stdout, "failed 1") || !strings.Contains(stdout, "metrics: "+prom) {
		t.Fatalf("stdout lacks the report or the metrics line:\n%s", stdout)
	}
	b, err := os.ReadFile(prom)
	if err != nil || !bytes.Contains(b, []byte("hiway_svc_failed_total 1")) {
		t.Fatalf("metrics %q (%v): want hiway_svc_failed_total 1", b, err)
	}
}

// TestFailedSimWritesItsArtifacts: a run that fails still writes every
// artifact asked for, then returns its error. Its trace holds every failed
// attempt's task end and a workflow-end without succeeded. A setup error
// writes nothing.
func TestFailedSimWritesItsArtifacts(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	stderr := mustFail(t, "sim", "-w", demo, "-input", "seed.txt=64", "-chaos", "crashrate=0.5", "-chaos-seed", "1",
		"-prov", at("f.jsonl"), "-trace", at("f.json"), "-metrics", at("f.prom"), "-decisions", at("f.log"), "-timeline", at("f.csv"))
	if stderr != "hiway: core: task 1 (gen) failed 4 times (last on node-04): injected fault\n" {
		t.Fatalf("stderr %q, want the retry exhaustion", stderr)
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
	mustFail(t, "sim", "-w", at("missing.cf"), "-prov", at("m.jsonl"))
	if _, err := os.Stat(at("m.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("a setup error wrote its trace: %v", err)
	}
}

// TestStalledSimEndsItsRecord: a run that stalls (a hung attempt and no
// deadlines) exits 1 naming the stall, and its trace ends the run with one
// failed workflow-end, so `hiway prov` reads its makespan instead of 0.0s.
func TestStalledSimEndsItsRecord(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "s.jsonl")
	stderr := mustFail(t, "sim", "-w", demo, "-input", "seed.txt=64", "-chaos", "hang=gen@0:1", "-prov", trace)
	if !strings.Contains(stderr, "stalled: 1 attempts running, 0 queued, 0 requests pending") {
		t.Fatalf("stderr %q, want the stall", stderr)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := provenance.ParseTrace(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	ends := 0
	for _, ev := range evs {
		if ev.Type == provenance.WorkflowEnd {
			ends++
		}
	}
	if last := evs[len(evs)-1]; ends != 1 || last.Type != provenance.WorkflowEnd || last.Succeeded {
		t.Fatalf("%d workflow-ends, last event %+v; want one, failed, last", ends, last)
	}
	m := regexp.MustCompile(`hiway-demo-00 +demo +1 tasks +([0-9.]+)s  FAILED`).FindStringSubmatch(mustRun(t, "prov", "-trace", trace))
	if m == nil {
		t.Fatal("prov lists no failed hiway-demo-00 run")
	}
	if makespan, _ := strconv.ParseFloat(m[1], 64); makespan <= 0 {
		t.Fatalf("prov reads a makespan of %gs for the stalled run", makespan)
	}
}

// TestZeroIsTakenAsGiven: -retry-limit 0 drops every rejected submission
// without a retry, where 1 retries it once, under `load` and under `serve
// -deterministic`; and -chaos-seed 0 is a seed of its own, not another
// spelling of 1.
func TestZeroIsTakenAsGiven(t *testing.T) {
	dir := t.TempDir()
	metrics := func(args ...string) map[string]float64 {
		t.Helper()
		path := filepath.Join(dir, "m.prom")
		mustRun(t, append(args, "-metrics", path)...)
		return promTotals(t, path)
	}
	for _, c := range []struct {
		args              []string
		rejected, dropped string
	}{
		{[]string{"load", "-duration", "600", "-rate", "4"}, "hiway_svc_rejections_total", "hiway_svc_dropped_total"},
		{[]string{"serve", "-deterministic", "-rate", "2", "-max-queue", "2", "-max-concurrent", "2"},
			"hiway_serve_rejected_total", "hiway_serve_dropped_total"},
	} {
		for limit, retried := range []bool{false, true} {
			m := metrics(append(c.args, "-retry-limit", fmt.Sprint(limit))...)
			rejected, dropped := m[c.rejected], m[c.dropped]
			if dropped == 0 || (rejected > dropped) != retried {
				t.Fatalf("%v -retry-limit %d: %g rejections, %g dropped; want retries %v", c.args, limit, rejected, dropped, retried)
			}
		}
	}
	chaos := []string{"load", "-duration", "600", "-chaos", "crashrate=0.3", "-chaos-seed"}
	if zero, one := metrics(append(chaos, "0")...), metrics(append(chaos, "1")...); reflect.DeepEqual(zero, one) {
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
	mustRun(t, "sim", "-w", wfPath, "-nodes", "2", "-input", "words.txt=5",
		"-trace", tracePath, "-metrics", metricsPath, "-decisions", decisionsPath)

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

// TestTraceSampleKeepsEveryNthTick pins -trace-sample: each counter series
// of a -trace-sample 3 trace is the full trace's series at ticks 0, 3, 6, 9, …
func TestTraceSampleKeepsEveryNthTick(t *testing.T) {
	dir := t.TempDir()
	series := func(every string) map[string][]float64 {
		path := filepath.Join(dir, "every"+every+".json")
		mustRun(t, "sim", "-w", demo, "-input", "seed.txt=64", "-trace", path, "-trace-sample", every)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Ts   float64 `json:"ts"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		got := map[string][]float64{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "C" {
				got[ev.Name] = append(got[ev.Name], ev.Ts)
			}
		}
		return got
	}
	all, kept := series("1"), series("3")
	if len(all) != 3 {
		t.Fatalf("full trace has %d counter series, want 3: %v", len(all), all)
	}
	for name, ts := range all {
		if len(ts) < 10 {
			t.Fatalf("series %s has %d ticks, want at least 10", name, len(ts))
		}
		var want []float64
		for i := 0; i < len(ts); i += 3 {
			want = append(want, ts[i])
		}
		if !reflect.DeepEqual(kept[name], want) {
			t.Errorf("series %s at -trace-sample 3 = %v, want %v", name, kept[name], want)
		}
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
	if out := mustRun(t, "inspect", "-w", daxPath); !strings.HasPrefix(out, "workflow wf\n") {
		t.Fatalf("inspect printed %q", out)
	}
	// Iterative languages cannot be inspected statically.
	cfPath := filepath.Join(dir, "wf.cf")
	os.WriteFile(cfPath, []byte(`deftask t( out : ~x ) in bash *{ true }*`+"\n"+`t( x: "1" );`), 0o644)
	if stderr := mustFail(t, "inspect", "-w", cfPath); !strings.Contains(stderr, "cuneiform workflows unfold at run time") {
		t.Fatalf("inspecting a Cuneiform workflow: %s", stderr)
	}
	mustFail(t, "inspect")
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
	mustRun(t, "sim", "-w", wfPath, "-input", "words.txt=5", "-gantt", "-timeline", timeline)
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
	mustRun(t, "local", "-w", wfPath, "-workdir", work)
	matches, _ := filepath.Glob(filepath.Join(work, "data", "demo", "hello_*", "out"))
	if len(matches) != 1 {
		t.Fatalf("output files = %v", matches)
	}
	data, _ := os.ReadFile(matches[0])
	if string(data) != "hi world\n" {
		t.Fatalf("output = %q", data)
	}
	mustFail(t, "local")
}

// TestRunProv drives `hiway prov`: -db over a provdb log prints what -trace
// prints over a JSONL trace of the same events, summaries and queries alike.
func TestRunProv(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.jsonl")
	mustRun(t, "sim", "-w", demo, "-input", "seed.txt=64", "-chaos", "crashrate=0.5", "-chaos-seed", "3", "-prov", tracePath)
	// Error paths.
	mustFail(t, "prov")
	mustFail(t, "prov", "-trace", tracePath, "-db", "x")
	mustFail(t, "prov", "-trace", filepath.Join(dir, "ghost.jsonl"))
	// provdb-backed path.
	trace, _ := os.ReadFile(tracePath)
	events, err := provenance.ParseTrace(string(trace))
	if err != nil {
		t.Fatal(err)
	}
	dbPath := filepath.Join(dir, "prov.db")
	db, err := provdb.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(provenance.NewDBStore(db).AppendBatch(events), db.Close()); err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"", "lineage demo/join_3/out", "memo-hits"} {
		args := []string{"prov", "-query", query}
		fromDB, fromTrace := mustRun(t, append(args, "-db", dbPath)...), mustRun(t, append(args, "-trace", tracePath)...)
		if fromDB != fromTrace || fromTrace == "" {
			t.Errorf("prov -query %q: -db prints\n%s\n-trace prints\n%s", query, fromDB, fromTrace)
		}
	}
	// -db reads: a file that is not a provdb log is refused and left as it
	// was, and a path that is not there stays not there.
	if stderr := mustFail(t, "prov", "-db", tracePath); !strings.Contains(stderr, "is not a provdb log") {
		t.Fatalf("-db on a JSONL trace: %s, want it refused as not a provdb log", stderr)
	}
	if after, _ := os.ReadFile(tracePath); !bytes.Equal(after, trace) || len(trace) == 0 {
		t.Fatalf("-db changed the trace it was given: %d → %d bytes", len(trace), len(after))
	}
	ghost := filepath.Join(dir, "ghost.db")
	mustFail(t, "prov", "-db", ghost)
	if _, err := os.Stat(ghost); !os.IsNotExist(err) {
		t.Fatalf("-db on a missing file left something there: %v", err)
	}
}

// TestSimShardDeterminism pins the parallel-shard contract end to end: a
// multi-workflow `hiway sim` must produce byte-identical stdout, merged
// provenance trace, and metrics snapshot whether the shards run serially
// (-shard-workers 1) or on parallel workers, in every one of five parallel
// runs. The identity corpus holds both worker counts under every policy.
// Each run goes through run in-process; output paths are normalized before
// comparison since the runs write to different directories.
func TestSimShardDeterminism(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	type result struct{ stdout, prov, metrics []byte }
	sim := func(name string, args ...string) result {
		sub := filepath.Join(dir, name)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		provPath := filepath.Join(sub, "run.jsonl")
		promPath := filepath.Join(sub, "run.prom")
		stdout := mustRun(t, append(append([]string{"sim"}, args...), "-prov", provPath, "-metrics", promPath)...)
		prov, err := os.ReadFile(provPath)
		if err != nil {
			t.Fatal(err)
		}
		metrics, err := os.ReadFile(promPath)
		if err != nil {
			t.Fatal(err)
		}
		out := strings.ReplaceAll(stdout, sub, "@OUT@")
		return result{stdout: []byte(out), prov: prov, metrics: metrics}
	}
	same := func(what string, a, b result) {
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
}

// TestCrossLanguageByteIdenticalCLI is the strongest portability claim the
// CLI makes: one logical workflow, rendered in Cuneiform and in CWL, prints
// the same `hiway sim` stdout and writes the same provenance trace, byte for
// byte. It takes the first fault-free chain scenario the verifier generates,
// since a chain is where Cuneiform's lazy task materialization allocates the
// task IDs, and so the output paths, of CWL's upfront one. Both files are
// named wf, so workflow IDs agree.
func TestCrossLanguageByteIdenticalCLI(t *testing.T) {
	var sc *verify.Scenario
	for seed := int64(1); sc == nil && seed <= 300; seed++ {
		c := verify.Generate(seed)
		if c.Shape != "chain" || c.Chaos != "" || c.Service != nil || c.Elastic != nil || len(c.IterTasks) > 0 {
			continue
		}
		if _, err := verify.RenderCuneiform(c); err == nil {
			sc = c
		}
	}
	if sc == nil {
		t.Fatal("no fault-free chain scenario in seeds 1–300")
	}
	dir := t.TempDir()
	prov := filepath.Join(dir, "prov.jsonl")
	args := []string{"-nodes", fmt.Sprint(sc.Nodes), "-prov", prov}
	for _, in := range sc.Inputs {
		args = append(args, "-input", in.Path+"="+strconv.FormatFloat(in.SizeMB, 'g', -1, 64))
	}
	var stdout, traces [2]string
	for i, r := range []struct {
		file   string
		render func(*verify.Scenario) (string, error)
	}{{"wf.cf", verify.RenderCuneiform}, {"wf.cwl", verify.RenderCWL}} {
		src, err := r.render(sc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, r.file)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		stdout[i] = mustRun(t, append([]string{"sim", "-w", path}, args...)...)
		trace, err := os.ReadFile(prov)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = string(trace)
	}
	if stdout[0] != stdout[1] {
		t.Errorf("seed %d: stdout differs between languages:\n--- cuneiform\n%s--- cwl\n%s", sc.Seed, stdout[0], stdout[1])
	}
	if traces[0] != traces[1] || traces[0] == "" {
		t.Errorf("seed %d: provenance traces of %d and %d bytes; want equal and not empty", sc.Seed, len(traces[0]), len(traces[1]))
	}
}

// TestRunPaper runs `hiway paper -exp table1` and checks it prints Table 1;
// an unknown experiment fails before anything runs.
func TestRunPaper(t *testing.T) {
	text := mustRun(t, "paper", "-exp", "table1")
	for _, want := range []string{"Table 1", "Cuneiform", "HEFT", "Montage"} {
		if !strings.Contains(text, want) {
			t.Errorf("paper -exp table1 output lacks %q:\n%s", want, text)
		}
	}
	if stderr := mustFail(t, "paper", "-exp", "fig7"); !strings.Contains(stderr, `unknown experiment "fig7"`) {
		t.Fatalf("paper -exp fig7: %s, want an unknown-experiment error", stderr)
	}
}
