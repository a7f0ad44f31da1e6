// Command hiway is the client for submitting scientific workflows, the
// analogue of the paper's light-weight client program (§3.1). It executes a
// workflow written in any supported language (Cuneiform, Pegasus DAX,
// Galaxy, CWL, or a Hi-WAY provenance trace) either with real processes on
// the local machine or on a simulated YARN cluster.
//
// Usage:
//
//	hiway local -w wf.cf [-workdir DIR] [-workers N] [-bind name=path]
//	hiway sim   -w wf.cf [-w wf2.dax ...] [-shard-workers N]
//	            [-nodes N] [-policy fcfs|dataaware|roundrobin|heft|adaptive]
//	            [-input path=sizeMB ...] [-bind name=path] [-prov out.jsonl]
//	            [-trace out.json] [-metrics out.prom] [-decisions out.log]
//	            [-chaos SPEC] [-chaos-seed N] [-timeout-floor SEC] [-speculate]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -w is repeatable: each occurrence becomes an independent workflow shard
// simulated on its own cluster by a pool of -shard-workers goroutines
// (default GOMAXPROCS), with stdout, per-shard artifact files
// (out.json.shard00, ...), and the merged provenance stream all
// byte-identical to a serial -shard-workers=1 run.
//
// -trace writes a Chrome trace_event JSON timeline (open in chrome://tracing
// or Perfetto), -metrics a Prometheus text snapshot, -decisions the
// scheduler's per-decision log, and -prov the re-executable provenance
// trace. See OBSERVABILITY.md for the full span and metric taxonomy.
//
// The language is detected from the file extension (.cf/.cuneiform, .dax/
// .xml, .ga [Galaxy JSON], .cwl [CWL JSON], .jsonl/.trace) with a content
// sniff for unknown extensions, and can be forced with -lang.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hiway/internal/chaos"
	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/experiments"
	"hiway/internal/hdfs"
	"hiway/internal/lang"
	"hiway/internal/localexec"
	"hiway/internal/obs"
	"hiway/internal/provdb"
	"hiway/internal/provenance"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/service"
	"hiway/internal/shard"
	"hiway/internal/sim"
	"hiway/internal/verify"
	"hiway/internal/wf"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "local":
		err = runLocal(os.Args[2:])
	case "sim":
		err = runSim(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "prov":
		err = runProv(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	case "load":
		err = runLoad(os.Args[2:])
	case "elastic":
		err = runElastic(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "paper":
		err = runPaper(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "hiway: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hiway:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `hiway — scientific workflow execution engine

  hiway local -w WORKFLOW [-workdir DIR] [-workers N] [-lang L] [-bind name=path ...]
      run the workflow with real processes on this machine

  hiway sim -w WORKFLOW [-w WORKFLOW ...] [-shard-workers N]
            [-nodes N] [-policy P] [-lang L]
            [-input path=sizeMB ...] [-bind name=path ...] [-prov FILE.jsonl]
            [-trace FILE.json] [-metrics FILE.prom] [-decisions FILE.log]
            [-trace-sample N] [-gantt] [-timeline FILE.csv]
            [-cpuprofile FILE] [-memprofile FILE]
      run the workflow(s) on a simulated YARN cluster; repeated -w flags
      become independent shards simulated in parallel with deterministic
      merged output

  hiway inspect -w WORKFLOW [-lang L] [-bind name=path ...]
      analyze a static workflow's structure without running it

  hiway prov (-trace FILE.jsonl | -db FILE.db) [-query Q]
      query a provenance store: workflow, task, and node summaries, or one
      targeted query with -query 'lineage PATH', 'diff RUN-A RUN-B', or
      'memo-hits [RUN]'

  hiway verify [-seeds N] [-start N] [-policy all|P,P,...] [-out FILE.json]
               [-repro FILE.json] [-no-shrink] [-portability] [-memo] [-v]
      property-based verification: run seeded random scenarios under every
      scheduling policy plus a kill/resume variant, auditing runtime
      invariants; a failing seed is minimized into a reproducer (TESTING.md);
      -portability forces the cross-language family so every seed is also
      round-tripped through the Cuneiform and CWL frontends; -memo forces
      the memoization family (cold/warm/kill-resume memo runs checked
      against the memo-off baseline)

  hiway load [-seed N] [-nodes N] [-duration SEC] [-rate X]
             [-max-concurrent N] [-max-queue N] [-retry-after SEC]
             [-retry-limit N] [-policy P] [-chaos SPEC] [-chaos-seed N]
             [-metrics FILE.prom] [-ladder] [-full] [-json FILE.json] [-memo]
      multi-tenant service load: an open-loop tenant mix submits workflows
      through admission control onto one simulated cluster; -ladder sweeps
      the arrival rate and emits the BENCH_service.json points; -memo shares
      one cross-tenant memo table so repeated pipelines splice their
      provenance-recorded outputs instead of re-executing

  hiway elastic [-seed N] [-duration SEC] [-rate X] [-autoscale P]
                [-static-nodes N] [-min-nodes N] [-max-nodes N]
                [-spot-rate R] [-spot-notice SEC] [-spot-every SEC]
                [-task-cpu SEC] [-max-concurrent N] [-max-queue N]
                [-metrics FILE.prom] [-ladder] [-full] [-json FILE.json]
      elastic cluster under churn: the service-tier tenant mix runs on a
      fleet sized by an autoscaling policy (static, reactive, predictive)
      with graceful node drains and optional spot-preemption chaos; -ladder
      sweeps the policy grid and emits the BENCH_elastic.json points

  hiway serve [-addr HOST:PORT] [-nodes N] [-policy P]
              [-max-concurrent N] [-max-queue N] [-retry-after SEC]
              [-retry-limit N] [-tenant SPEC ...] [-rate X]
              [-deterministic] [-seed N] [-duration SEC]
              [-prov FILE.jsonl] [-metrics FILE.prom] [-multiset FILE]
              [-drain-timeout SEC] [-memo]
      network service front-end: accept workflow submissions over HTTP
      (POST /v1/workflows), run each admitted workflow concurrently on its
      own simulated substrate, stream status and events, and drain
      gracefully on SIGINT/SIGTERM or POST /v1/drain; -deterministic
      replays the seeded tenant mix on a virtual clock through the same
      handlers instead of listening; -memo shares one cross-tenant memo
      table and exposes GET /v1/provenance for lineage, cross-run diff,
      and memo-hit attribution queries (SERVICE.md)

  hiway paper [-exp table1|fig4|table2|fig5|fig6|fig8|fig9|all] [-quick]
      regenerate the tables and figures of the paper's evaluation (§4) on
      the simulated substrate as text tables; -quick shrinks repetition
      counts so the full set finishes in seconds

Supported languages: cuneiform (.cf), dax (.dax/.xml), galaxy (.ga), cwl (.cwl), trace (.jsonl)
Scheduling policies: fcfs, dataaware (default), roundrobin, heft, adaptive
`)
}

// multiFlag collects repeated -input / -bind flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// buildDriver reads the workflow file and parses it with the right
// frontend: the forced language if given, else the shared detector's
// verdict on the file name and content. It returns the resolved language
// alongside the driver so callers can name it in messages.
func buildDriver(path, forced string, binds map[string]string) (wf.Driver, string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	language := forced
	if language == "" {
		language = lang.Detect(path, string(src))
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	driver, err := lang.NewDriver(language, name, string(src), binds)
	if err != nil {
		return nil, language, err
	}
	return driver, language, nil
}

func parseBinds(pairs []string) (map[string]string, error) {
	out := make(map[string]string, len(pairs))
	for _, p := range pairs {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return nil, fmt.Errorf("bad -bind %q (want name=path)", p)
		}
		out[k] = v
	}
	return out, nil
}

func runLocal(args []string) error {
	fs := flag.NewFlagSet("local", flag.ExitOnError)
	wfPath := fs.String("w", "", "workflow file (required)")
	workdir := fs.String("workdir", "", "staging directory (default: temp dir)")
	workers := fs.Int("workers", 0, "parallel tasks (default: CPUs)")
	lang := fs.String("lang", "", "force workflow language")
	var binds multiFlag
	fs.Var(&binds, "bind", "bind a Galaxy input: name=path (repeatable)")
	fs.Parse(args)
	if *wfPath == "" {
		return fmt.Errorf("missing -w workflow file")
	}
	bindMap, err := parseBinds(binds)
	if err != nil {
		return err
	}
	driver, _, err := buildDriver(*wfPath, *lang, bindMap)
	if err != nil {
		return err
	}
	dir := *workdir
	if dir == "" {
		dir, err = os.MkdirTemp("", "hiway-local")
		if err != nil {
			return err
		}
	}
	rep, err := localexec.Run(driver, localexec.Config{WorkDir: dir, Workers: *workers})
	if err != nil {
		return err
	}
	fmt.Printf("workflow %s finished in %.2fs (%d tasks)\n", rep.WorkflowName, rep.MakespanSec, len(rep.Results))
	for _, out := range rep.Outputs {
		fmt.Println("output:", out)
	}
	return nil
}

// simShard is one workflow of a (possibly multi-workflow) sim invocation,
// with its own complete simulation substrate. All fields are assembled on
// the serial setup path; run() only touches shard-local state, so shards can
// execute on parallel workers while every observable output — the buffered
// stdout block, the provenance events, the metrics snapshot — stays
// byte-identical at any worker count.
type simShard struct {
	driver wf.Driver
	eng    *sim.Engine
	env    core.Env
	sched  scheduler.Scheduler
	cfg    core.Config
	o      *obs.Obs
	store  *provenance.MemStore // the shard's provenance, for -prov
	gantt  bool

	out      bytes.Buffer
	launched bool         // the AM launched: the run has artifacts, even if it failed
	rep      *core.Report // nil unless the run ended (succeeded or failed)
}

// launch starts the shard's AM and, when observability is on, its periodic
// counter samples on the virtual clock.
func (s *simShard) launch() (*core.AM, error) {
	am, err := core.Launch(s.env, s.driver, s.sched, s.cfg)
	if err != nil || s.o == nil || am.Finished() {
		return am, err
	}
	// The tick re-arms only while the workflow runs and another event is
	// pending. A tick that is the engine's only event would keep a stalled
	// run alive forever, and the stall would never be reported.
	tr := s.o.T()
	var tick func()
	tick = func() {
		if am.Finished() || s.eng.Pending() == 0 {
			return
		}
		tr.Sample("sim", "event_queue_depth", float64(s.eng.Pending()))
		tr.Sample("yarn", "running_containers", float64(s.env.RM.RunningContainers()))
		tr.Sample("sched", "queued_tasks", float64(s.sched.Queued()))
		s.eng.Schedule(1, tick)
	}
	s.eng.Schedule(1, tick)
	return am, nil
}

// run launches and simulates the shard. A run that fails or stalls keeps
// what it recorded, for the artifacts, and returns its error after.
func (s *simShard) run() error {
	am, err := s.launch()
	if err != nil {
		return err
	}
	s.launched = true
	s.eng.Run()
	if s.o != nil {
		s.env.Cluster.RecordMetrics(s.o.M())
	}
	rep, err := am.Report()
	s.rep = rep
	if ferr := s.env.Prov.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(&s.out, rep.Summary())
	for _, out := range rep.Outputs {
		fmt.Fprintln(&s.out, "output:", out)
	}
	if s.gantt {
		fmt.Fprint(&s.out, rep.Gantt(100))
	}
	return nil
}

// shardFile derives the per-shard variant of an output path: the path itself
// for a single-workflow run, path.shardNN with multiple workflows.
func shardFile(path string, i, n int) string {
	if n == 1 {
		return path
	}
	return fmt.Sprintf("%s.shard%02d", path, i)
}

func runSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	var wfPaths multiFlag
	fs.Var(&wfPaths, "w", "workflow file (repeatable: each extra -w runs as an independent shard)")
	shardWorkers := fs.Int("shard-workers", runtime.GOMAXPROCS(0), "goroutines simulating shards in parallel (outputs are identical at any value)")
	nodes := fs.Int("nodes", 8, "number of simulated worker nodes")
	policy := fs.String("policy", scheduler.PolicyDataAware, "scheduling policy")
	lang := fs.String("lang", "", "force workflow language")
	provPath := fs.String("prov", "", "write the provenance trace (re-executable) to this file")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON timeline to this file")
	metricsPath := fs.String("metrics", "", "write a Prometheus text metrics snapshot to this file")
	decisionsPath := fs.String("decisions", "", "write the scheduler's per-decision log to this file")
	traceSample := fs.Int("trace-sample", 1, "keep every Nth counter sample in the trace")
	gantt := fs.Bool("gantt", false, "print a per-node text timeline after the run")
	timelinePath := fs.String("timeline", "", "write the per-task timeline CSV to this file")
	chaosSpec := fs.String("chaos", "", "chaos plan, e.g. 'crashrate=0.1;hang=bowtie2@0:1;kill=node-03@60'")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for chaos rate draws")
	timeoutFloor := fs.Float64("timeout-floor", 0, "attempt timeout floor in seconds (0 disables timeouts)")
	timeoutSlack := fs.Float64("timeout-slack", 3, "deadline = max(floor, p95 runtime x slack)")
	speculate := fs.Bool("speculate", false, "race timed-out attempts against a duplicate on another node")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	var inputs, binds multiFlag
	fs.Var(&inputs, "input", "stage an input file: path=sizeMB (repeatable)")
	fs.Var(&binds, "bind", "bind a Galaxy input: name=path (repeatable)")
	fs.Parse(args)
	if len(wfPaths) == 0 {
		return fmt.Errorf("missing -w workflow file")
	}
	bindMap, err := parseBinds(binds)
	if err != nil {
		return err
	}
	staged := make([]workloads.Input, len(inputs))
	for i, in := range inputs {
		path, szStr, ok := strings.Cut(in, "=")
		if !ok {
			return fmt.Errorf("bad -input %q (want path=sizeMB)", in)
		}
		sz, err := strconv.ParseFloat(szStr, 64)
		if err != nil {
			return fmt.Errorf("bad -input size %q: %v", szStr, err)
		}
		if math.IsNaN(sz) || math.IsInf(sz, 0) {
			// HDFS would lay out an infinite file block by block until
			// memory ran out, and a NaN-sized one with no blocks.
			return fmt.Errorf("bad -input size %q: not a finite number", szStr)
		}
		staged[i] = workloads.Input{Path: path, SizeMB: sz}
	}

	// --- Setup, in -w flag order: each shard gets its own driver and
	// substrate. A driver numbers its tasks from 1, so a shard's run is a
	// function of its own workflow, whichever worker simulates it.
	n := len(wfPaths)
	shards := make([]*simShard, n)
	for i, wfPath := range wfPaths {
		driver, _, err := buildDriver(wfPath, *lang, bindMap)
		if err != nil {
			return err
		}
		r := &recipes.Recipe{
			Name:       "hiway-sim",
			Groups:     []recipes.NodeGroup{{Count: *nodes, Spec: cluster.M3Large()}},
			SwitchMBps: 2000,
			HDFS:       hdfs.Config{},
			YARN:       yarn.Config{},
			Seed:       1,
			Inputs:     staged,
		}
		eng, env, err := r.Materialize()
		if err != nil {
			return err
		}
		s := &simShard{driver: driver, eng: eng, env: env, store: provenance.NewMemStore(), gantt: *gantt}
		if s.env.Prov, err = provenance.NewManager(s.store); err != nil {
			return err
		}
		// Observability is built only when an output asks for it, so the
		// default run keeps the nil-handle fast path everywhere.
		if *tracePath != "" || *metricsPath != "" || *decisionsPath != "" {
			s.o = obs.New(eng.Now)
			if *traceSample > 1 {
				s.o.T().SetSampleEvery(*traceSample)
			}
			s.env.Obs = s.o
			s.env.RM.SetObs(s.o)
			s.env.Prov.SetObs(s.o)
		}
		if s.sched, err = scheduler.New(*policy, scheduler.Deps{Locality: s.env.FS, Estimator: s.env.Prov, Obs: s.o}); err != nil {
			return err
		}
		s.cfg = core.Config{
			TaskTimeoutFloorSec: *timeoutFloor,
			TimeoutSlack:        *timeoutSlack,
			Speculate:           *speculate,
		}
		if *chaosSpec != "" {
			plan, err := chaos.Parse(*chaosSpec, *chaosSeed)
			if err != nil {
				return err
			}
			plan.Arm(eng, s.env.RM, s.env.FS, s.env.Cluster)
			s.cfg.Chaos = plan
			// Under injected faults, track node health so repeatedly failing
			// nodes get blacklisted like they would in production.
			s.cfg.Health = scheduler.NewNodeHealthTracker(eng.Now)
			fmt.Fprintln(&s.out, "chaos:", plan)
		}
		// The shard index keys the workflow ID, so the same workflow at the
		// same position gets the same ID — renderings of one logical
		// workflow in different languages stay byte-comparable.
		s.cfg.WorkflowID = fmt.Sprintf("hiway-%s-%02d", driver.Name(), i)
		shards[i] = s
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	// --- Parallel phase: one engine and one driver per shard, nothing
	// shared, so the outputs are identical at any -shard-workers. A shard
	// that failed to launch fails the invocation before anything is
	// written; one that launched and then failed or stalled still gets its
	// artifacts, and the error is returned after them.
	runErr := shard.Run(n, *shardWorkers, func(i int) error { return shards[i].run() })
	for _, s := range shards {
		if !s.launched {
			return runErr
		}
	}

	// --- Deterministic output phase, in shard order throughout.
	for _, s := range shards {
		os.Stdout.Write(s.out.Bytes())
	}
	if *memProfile != "" {
		err := writeFile(*memProfile, func(w io.Writer) error {
			runtime.GC() // measure live objects, not garbage
			return pprof.WriteHeapProfile(w)
		})
		if err != nil {
			return err
		}
		fmt.Println("heap profile:", *memProfile)
	}
	if *timelinePath != "" {
		for i, s := range shards {
			if s.rep == nil {
				continue // stalled: no report, no timeline
			}
			p := shardFile(*timelinePath, i, n)
			if err := os.WriteFile(p, []byte(s.rep.TimelineCSV()), 0o644); err != nil {
				return err
			}
			fmt.Println("timeline:", p)
		}
	}
	if *tracePath != "" {
		for i, s := range shards {
			p := shardFile(*tracePath, i, n)
			if err := writeFile(p, s.o.T().WriteChrome); err != nil {
				return err
			}
			fmt.Println("trace:", p)
		}
	}
	if *metricsPath != "" {
		err := writeFile(*metricsPath, func(w io.Writer) error {
			for i, s := range shards {
				if n > 1 {
					fmt.Fprintf(w, "# shard %02d: %s\n", i, s.driver.Name())
				}
				if err := s.o.M().WritePrometheus(w); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Println("metrics:", *metricsPath)
	}
	if *decisionsPath != "" {
		for i, s := range shards {
			p := shardFile(*decisionsPath, i, n)
			if err := os.WriteFile(p, []byte(s.o.D().Render()), 0o644); err != nil {
				return err
			}
			fmt.Println("decisions:", p)
		}
	}
	if *provPath != "" {
		// One trace for all shards, ordered by (timestamp, shard, position).
		// A shard records in time order, so one workflow's trace is its
		// events as recorded. The file is created only now: -prov may name
		// the trace -w is replaying.
		stores := make([]*provenance.MemStore, n)
		for i, s := range shards {
			stores[i] = s.store
		}
		err := writeFile(*provPath, func(w io.Writer) error {
			return provenance.WriteTrace(w, shard.MergeEvents(stores))
		})
		if err != nil {
			return err
		}
		fmt.Println("provenance trace:", *provPath)
	}
	return runErr
}

// writeFile creates path, replacing whatever was there, and fills it with
// write: every artifact flag names a fresh file.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics writes o's Prometheus snapshot to path, if one was asked for.
func writeMetrics(path string, o *obs.Obs) error {
	if path == "" {
		return nil
	}
	if err := writeFile(path, o.M().WritePrometheus); err != nil {
		return err
	}
	fmt.Println("metrics:", path)
	return nil
}

// printLadder prints a ladder's table and, with -json, writes its points.
func printLadder(table string, points []byte, jsonPath string) error {
	fmt.Print(table)
	if jsonPath == "" {
		return nil
	}
	if err := os.WriteFile(jsonPath, points, 0o644); err != nil {
		return err
	}
	fmt.Println("ladder:", jsonPath)
	return nil
}

// runVerify drives the property-based scenario verifier: a batch of seeded
// random scenarios, each executed under the full scheduling-policy matrix
// plus a kill/resume variant, with runtime invariant auditing hooked into
// the RM and AM. The batch stops at the first failing seed, minimizes it,
// and emits a self-contained JSON reproducer that -repro re-checks.
func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	seeds := fs.Int64("seeds", 50, "number of consecutive seeds to check")
	start := fs.Int64("start", 1, "first seed of the batch")
	policy := fs.String("policy", "all", "policy matrix: 'all' or a comma-separated subset")
	reproPath := fs.String("repro", "", "re-check a reproducer scenario JSON instead of generating a batch")
	outPath := fs.String("out", "", "write the minimized failing reproducer JSON to this file")
	verbose := fs.Bool("v", false, "print every seed's per-policy outcome, not just failures")
	noShrink := fs.Bool("no-shrink", false, "report the first failing seed without minimizing it")
	portability := fs.Bool("portability", false, "force the cross-language portability family on every seed (and on -repro)")
	memoFamily := fs.Bool("memo", false, "force the memoization family on every seed (and on -repro)")
	fs.Parse(args)

	opts := verify.Options{}
	if *policy != "" && *policy != "all" {
		for _, p := range strings.Split(*policy, ",") {
			if !slices.Contains(scheduler.Policies, p) {
				return fmt.Errorf("unknown policy %q (have %s)", p, strings.Join(scheduler.Policies, ", "))
			}
			opts.Policies = append(opts.Policies, p)
		}
	}

	report := func(sc *verify.Scenario, res *verify.Result) {
		fmt.Printf("seed %d (%s, %d tasks, %d nodes, chaos %q): FAIL\n",
			sc.Seed, sc.Shape, sc.TotalTasks(), sc.Nodes, sc.Chaos)
		for _, f := range res.Failures {
			fmt.Println("  ", f)
		}
	}

	if *reproPath != "" {
		data, err := os.ReadFile(*reproPath)
		if err != nil {
			return err
		}
		sc, err := verify.ParseScenario(data)
		if err != nil {
			return err
		}
		if *portability {
			sc.Portability = true
		}
		if *memoFamily {
			sc.Memo = true
		}
		res := verify.CheckScenario(sc, opts)
		if !res.OK() {
			report(sc, res)
			return fmt.Errorf("reproducer %s still fails (%d failures)", *reproPath, len(res.Failures))
		}
		fmt.Printf("reproducer %s passes: all invariants hold\n", *reproPath)
		return nil
	}

	for seed := *start; seed < *start+*seeds; seed++ {
		sc := verify.Generate(seed)
		if *portability {
			sc.Portability = true
		}
		if *memoFamily {
			sc.Memo = true
		}
		res := verify.CheckScenario(sc, opts)
		if res.OK() {
			if *verbose {
				for _, run := range res.Runs {
					fmt.Printf("seed %d (%s): %-10s ok  makespan %8.1fs  executed %d  recovered %d\n",
						seed, sc.Shape, run.Policy, run.MakespanSec, run.Executed, run.Recovered)
				}
			}
			continue
		}
		report(sc, res)
		repro := sc
		if !*noShrink {
			rep := verify.Shrink(sc, opts)
			repro = rep.Scenario
			fmt.Printf("minimized to %d tasks, chaos %q after %d probes\n",
				repro.TotalTasks(), repro.Chaos, rep.Probes)
		}
		if *outPath != "" {
			if err := os.WriteFile(*outPath, repro.Marshal(), 0o644); err != nil {
				return err
			}
			fmt.Println("reproducer:", *outPath)
			// A portability failure gets a two-file reproducer alongside the
			// JSON: the same workflow in both source languages, runnable
			// directly with `hiway sim`/`hiway local`.
			if repro.Portability {
				for _, r := range []struct {
					ext    string
					render func(*verify.Scenario) (string, error)
				}{
					{".cf", verify.RenderCuneiform}, {".cwl", verify.RenderCWL},
				} {
					ext, render := r.ext, r.render
					src, rerr := render(repro)
					if rerr != nil {
						fmt.Printf("rendering %s: %v\n", ext, rerr)
						continue
					}
					if err := os.WriteFile(*outPath+ext, []byte(src), 0o644); err != nil {
						return err
					}
					fmt.Println("reproducer workflow:", *outPath+ext)
				}
			}
		} else {
			fmt.Printf("reproducer (re-check with `hiway verify -repro FILE`):\n%s", repro.Marshal())
		}
		return fmt.Errorf("seed %d violated invariants", seed)
	}
	n := len(opts.Policies)
	if n == 0 {
		n = len(scheduler.Policies)
	}
	fmt.Printf("verified %d seeds x %d policies (+resume variant): all invariants hold\n", *seeds, n)
	return nil
}

// runElastic drives the service tier on a fleet sized by an autoscaling
// policy, optionally under spot-preemption chaos. With -ladder the policy ×
// chaos grid is swept and the points are emitted as BENCH_elastic.json.
func runElastic(args []string) error {
	fs := flag.NewFlagSet("elastic", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "seed for arrivals, autoscaling draws, and the simulated substrate")
	duration := fs.Float64("duration", 1800, "arrival window in simulated seconds")
	rate := fs.Float64("rate", 1, "arrival-rate multiplier over the base tenant mix")
	autoscale := fs.String("autoscale", "static", "fleet sizing policy: static, reactive, or predictive")
	staticNodes := fs.Int("static-nodes", 10, "fixed fleet size for the static policy")
	minNodes := fs.Int("min-nodes", 2, "elastic fleet floor (and starting size)")
	maxNodes := fs.Int("max-nodes", 12, "elastic fleet ceiling")
	spotRate := fs.Float64("spot-rate", 0, "per-check spot reclaim probability per spot node (0 disables chaos)")
	spotNotice := fs.Float64("spot-notice", 120, "seconds between spot preemption notice and reclaim")
	spotEvery := fs.Float64("spot-every", 60, "seconds between spot market checks")
	taskCPU := fs.Float64("task-cpu", 180, "CPU seconds per workflow task")
	maxConcurrent := fs.Int("max-concurrent", 4, "admission cap: concurrently running AMs")
	maxQueue := fs.Int("max-queue", 16, "backpressure threshold: queued workflows before rejection")
	metricsPath := fs.String("metrics", "", "write a Prometheus text metrics snapshot to this file")
	ladder := fs.Bool("ladder", false, "sweep the policy x chaos grid instead of a single run")
	full := fs.Bool("full", false, "with -ladder: run the full-length arrival window")
	jsonPath := fs.String("json", "", "with -ladder: write the ladder points JSON to this file")
	fs.Parse(args)

	cfg := experiments.ElasticLoadConfig{
		Seed:           *seed,
		DurationSec:    *duration,
		RateX:          *rate,
		Autoscale:      *autoscale,
		StaticNodes:    *staticNodes,
		MinNodes:       *minNodes,
		MaxNodes:       *maxNodes,
		SpotRate:       *spotRate,
		SpotNoticeSec:  *spotNotice,
		SpotEverySec:   *spotEvery,
		TaskCPUSeconds: *taskCPU,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
	}

	if *ladder {
		cfgs := experiments.ElasticSweepConfigs(*full)
		for i := range cfgs {
			pol, spot, dur := cfgs[i].Autoscale, cfgs[i].SpotRate, cfgs[i].DurationSec
			cfgs[i] = cfg
			cfgs[i].Autoscale = pol
			cfgs[i].SpotRate = spot
			cfgs[i].DurationSec = dur
		}
		res, err := experiments.ElasticSweep(cfgs)
		if err != nil {
			return err
		}
		return printLadder(res.Render(), res.JSON(), *jsonPath)
	}

	cfg.WithObs = *metricsPath != ""
	run, err := experiments.ElasticLoad(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("elastic load: seed %d, %s autoscaling, %.0fs window, rate x%g\n",
		cfg.Seed, cfg.Autoscale, cfg.DurationSec, cfg.RateX)
	if cfg.SpotRate > 0 {
		fmt.Printf("spot chaos: rate %g, notice %.0fs, every %.0fs\n",
			cfg.SpotRate, cfg.SpotNoticeSec, cfg.SpotEverySec)
	}
	fmt.Print(run.Render())
	return writeMetrics(*metricsPath, run.Obs)
}

// runLoad drives the multi-tenant service tier: an open-loop arrival
// process (the default tenant mix, scaled by -rate) submits workflow
// instances through admission control onto one simulated cluster, and the
// per-workflow accounting is printed when the run drains. Same-seed runs
// print byte-identical reports. With -ladder the arrival rate is swept and
// the measured points are emitted as BENCH_service.json.
func runLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "seed for arrivals and the simulated substrate")
	nodes := fs.Int("nodes", 8, "number of simulated worker nodes")
	duration := fs.Float64("duration", 1800, "arrival window in simulated seconds")
	rate := fs.Float64("rate", 1, "arrival-rate multiplier over the base tenant mix")
	maxConcurrent := fs.Int("max-concurrent", 4, "admission cap: concurrently running AMs")
	maxQueue := fs.Int("max-queue", 16, "backpressure threshold: queued workflows before rejection")
	retryAfter := fs.Float64("retry-after", 30, "client retry delay after a rejection, in seconds")
	retryLimit := fs.Int("retry-limit", 1, "client retries after rejection before dropping")
	policy := fs.String("policy", scheduler.PolicyFCFS, "per-workflow scheduling policy")
	chaosSpec := fs.String("chaos", "", "chaos plan, e.g. 'crashrate=0.1;kill=node-03@60'")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for chaos rate draws")
	metricsPath := fs.String("metrics", "", "write a Prometheus text metrics snapshot to this file")
	ladder := fs.Bool("ladder", false, "sweep the arrival-rate ladder instead of a single run")
	full := fs.Bool("full", false, "with -ladder: include the overload rungs (x2, x4)")
	jsonPath := fs.String("json", "", "with -ladder: write the ladder points JSON to this file")
	memoOn := fs.Bool("memo", false, "share a cluster-wide memo table across tenants: repeated tasks splice instead of executing")
	fs.Parse(args)

	cfg := experiments.ServiceLoadConfig{
		Seed:          *seed,
		Nodes:         *nodes,
		DurationSec:   *duration,
		RateX:         *rate,
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		RetryAfterSec: *retryAfter,
		RetryLimit:    *retryLimit,
		Policy:        *policy,
		ChaosSpec:     *chaosSpec,
		ChaosSeed:     *chaosSeed,
		Memo:          *memoOn,
	}

	if *ladder {
		cfgs := experiments.ServiceSweepConfigs(*full)
		for i := range cfgs {
			rx := cfgs[i].RateX
			cfgs[i] = cfg
			cfgs[i].RateX = rx
		}
		res, err := experiments.ServiceSweep(cfgs)
		if err != nil {
			return err
		}
		return printLadder(res.Render(), res.JSON(), *jsonPath)
	}

	cfg.WithObs = *metricsPath != ""
	run, err := experiments.ServiceLoad(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("service load: seed %d, %d nodes, %.0fs window, rate x%g, policy %s\n",
		cfg.Seed, cfg.Nodes, cfg.DurationSec, cfg.RateX, cfg.Policy)
	if cfg.ChaosSpec != "" {
		fmt.Println("chaos:", cfg.ChaosSpec)
	}
	if cfg.Memo {
		fmt.Println("memo: cross-tenant table enabled")
	}
	fmt.Print(run.Render())
	return writeMetrics(*metricsPath, run.Obs)
}

// parseTenantProfiles decodes repeated -tenant flags of the form
// name[,weight=N][,containers=N][,inflight=N][,rate=R][,burst=N][,memo=off].
func parseTenantProfiles(specs []string) ([]service.TenantProfile, error) {
	out := make([]service.TenantProfile, 0, len(specs))
	for _, spec := range specs {
		parts := strings.Split(spec, ",")
		if parts[0] == "" {
			return nil, fmt.Errorf("bad -tenant %q: empty name", spec)
		}
		p := service.TenantProfile{Name: parts[0]}
		for _, kv := range parts[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("bad -tenant field %q (want key=value)", kv)
			}
			var err error
			switch k {
			case "weight":
				p.Weight, err = strconv.Atoi(v)
			case "containers":
				p.MaxContainers, err = strconv.Atoi(v)
			case "inflight":
				p.MaxInFlight, err = strconv.Atoi(v)
			case "rate":
				p.RatePerSec, err = strconv.ParseFloat(v, 64)
			case "burst":
				p.Burst, err = strconv.Atoi(v)
			case "memo":
				switch v {
				case "off":
					p.MemoOptOut = true
				case "on":
					p.MemoOptOut = false
				default:
					err = fmt.Errorf("want on or off")
				}
			default:
				return nil, fmt.Errorf("bad -tenant field %q (want weight, containers, inflight, rate, burst, or memo)", k)
			}
			if err != nil {
				return nil, fmt.Errorf("bad -tenant field %q: %v", kv, err)
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// runServe starts the network service front-end (or its deterministic
// virtual-clock replay) and handles graceful drain on SIGINT/SIGTERM or
// POST /v1/drain: admission stops, in-flight runs finish, provenance is
// merged and flushed, then the process exits.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	nodes := fs.Int("nodes", 8, "simulated worker nodes per run")
	policy := fs.String("policy", scheduler.PolicyFCFS, "default per-workflow scheduling policy")
	maxConcurrent := fs.Int("max-concurrent", 8, "admission cap: concurrently running AM goroutines")
	maxQueue := fs.Int("max-queue", 64, "backpressure threshold: queued runs before 429")
	retryAfter := fs.Float64("retry-after", 5, "Retry-After hint on 429 responses, in seconds")
	retryLimit := fs.Int("retry-limit", 1, "deterministic mode: client retries after rejection before dropping")
	var tenants multiFlag
	fs.Var(&tenants, "tenant", "tenant profile 'name[,weight=N][,containers=N][,inflight=N][,rate=R][,burst=N][,memo=off]' (repeatable; default: built-in mix)")
	rate := fs.Float64("rate", 1, "rate multiplier over the built-in tenant mix (when no -tenant is given)")
	det := fs.Bool("deterministic", false, "seeded virtual-clock replay through the same handlers instead of listening")
	seed := fs.Int64("seed", 1, "deterministic mode: arrival seed")
	duration := fs.Float64("duration", 600, "deterministic mode: arrival window in virtual seconds")
	provPath := fs.String("prov", "", "flush the merged provenance trace to this JSONL file at drain")
	metricsPath := fs.String("metrics", "", "write a Prometheus metrics snapshot to this file at drain")
	multisetPath := fs.String("multiset", "", "write the completed-task multiset to this file at drain")
	drainTimeout := fs.Float64("drain-timeout", 120, "seconds to wait for in-flight runs at shutdown before exiting anyway")
	memoOn := fs.Bool("memo", false, "share a cluster-wide memo table across tenants: repeated submissions splice instead of executing")
	fs.Parse(args)

	profiles := experiments.ServiceTenantMix(*rate)
	if len(tenants) > 0 {
		var err error
		profiles, err = parseTenantProfiles(tenants)
		if err != nil {
			return err
		}
	}
	srv, err := service.NewServer(service.ServerConfig{
		Nodes:         *nodes,
		Policy:        *policy,
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		RetryAfterSec: *retryAfter,
		RetryLimit:    *retryLimit,
		Deterministic: *det,
		Memo:          *memoOn,
	}, profiles)
	if err != nil {
		return err
	}

	drained := true
	if *det {
		fmt.Printf("serve: deterministic replay, seed %d, %.0fs window, %d tenants, policy %s\n",
			*seed, *duration, len(profiles), *policy)
		if err := srv.RunDeterministic(*seed, *duration); err != nil {
			return err
		}
		srv.StartDrain() // already idle: records the drain for the artifacts below
	} else {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		serveErr := make(chan error, 1)
		go func() { serveErr <- hs.Serve(ln) }()
		fmt.Printf("serve: listening on http://%s (%d tenants, policy %s)\n", ln.Addr(), len(profiles), *policy)

		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigCh)
		select {
		case err := <-serveErr:
			return err
		case s := <-sigCh:
			fmt.Fprintf(os.Stderr, "serve: %v: draining\n", s)
			srv.StartDrain()
		case <-srv.Drained():
			// drained via POST /v1/drain
		}
		select {
		case <-srv.Drained():
		case <-time.After(time.Duration(*drainTimeout * float64(time.Second))):
			drained = false
			fmt.Fprintln(os.Stderr, "serve: drain timeout; exiting with runs in flight")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = hs.Shutdown(ctx)
		cancel()
	}
	if drained {
		srv.Wait()
	}

	st := srv.Stats()
	fmt.Printf("serve: submitted %d  accepted %d  rejected %d  dropped %d  completed %d  failed %d  peak-running %d\n",
		st.Submitted, st.Accepted, st.Rejected, st.Dropped, st.Completed, st.Failed, st.PeakRunning)
	if *provPath != "" {
		merged := srv.MergedProvenance()
		if err := writeFile(*provPath, func(w io.Writer) error { return provenance.WriteTrace(w, merged) }); err != nil {
			return err
		}
		fmt.Printf("prov: %s (%d events)\n", *provPath, len(merged))
	}
	if err := writeMetrics(*metricsPath, srv.Obs()); err != nil {
		return err
	}
	if *multisetPath != "" {
		if err := os.WriteFile(*multisetPath, srv.Multiset(), 0o644); err != nil {
			return err
		}
		fmt.Println("multiset:", *multisetPath)
	}
	return nil
}

// runProv prints summaries over a provenance store — the manual-query
// capability §3.5 attributes to database-backed provenance.
func runProv(args []string) error {
	fs := flag.NewFlagSet("prov", flag.ExitOnError)
	tracePath := fs.String("trace", "", "JSONL trace file")
	dbPath := fs.String("db", "", "provdb log file")
	query := fs.String("query", "", "run one query instead of the summaries: 'lineage PATH', 'diff RUN-A RUN-B', or 'memo-hits [RUN]'")
	fs.Parse(args)
	var store provenance.Store
	switch {
	case *tracePath != "" && *dbPath != "":
		return fmt.Errorf("choose one of -trace or -db")
	case *tracePath != "":
		data, err := os.ReadFile(*tracePath)
		if err != nil {
			return err
		}
		events, err := provenance.ParseTrace(string(data))
		if err != nil {
			return err
		}
		mem := provenance.NewMemStore()
		if err := mem.AppendBatch(events); err != nil {
			return err
		}
		store = mem
	case *dbPath != "":
		// Open would create the log: a mistyped path must not.
		if _, err := os.Stat(*dbPath); err != nil {
			return err
		}
		db, err := provdb.Open(*dbPath)
		if err != nil {
			return err
		}
		defer db.Close()
		store = provenance.NewDBStore(db)
	default:
		return fmt.Errorf("missing -trace or -db")
	}

	if *query != "" {
		q, err := provenance.ParseQuery(*query)
		if err != nil {
			return err
		}
		out, err := provenance.RunQuery(store, q)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}

	// Each summary scans the store; a database is decoded once for all three.
	if *dbPath != "" {
		events, err := store.Events()
		if err != nil {
			return err
		}
		mem := provenance.NewMemStore()
		if err := mem.AppendBatch(events); err != nil {
			return err
		}
		store = mem
	}
	wfs, err := provenance.SummarizeWorkflows(store)
	if err != nil {
		return err
	}
	fmt.Printf("workflow runs (%d):\n", len(wfs))
	for _, w := range wfs {
		status := "ok"
		if !w.Succeeded {
			status = "FAILED"
		}
		fmt.Printf("  %-40s %-16s %4d tasks  %8.1fs  %s\n", w.WorkflowID, w.WorkflowName, w.Tasks, w.MakespanSec, status)
	}
	tasks, err := provenance.SummarizeTasks(store)
	if err != nil {
		return err
	}
	fmt.Printf("\ntask signatures:\n%s", provenance.RenderTaskSummaries(tasks))
	nodes, err := provenance.SummarizeNodes(store)
	if err != nil {
		return err
	}
	fmt.Printf("\nnode usage:\n")
	for _, n := range nodes {
		fmt.Printf("  %-12s %4d tasks  busy %9.1fs  mean %7.1fs  failures %d\n",
			n.Node, n.Tasks, n.BusySec, n.MeanSec, n.Failures)
	}
	return nil
}

// paperExperiments are the -exp names of `hiway paper`, besides "all".
var paperExperiments = []string{"table1", "fig4", "table2", "fig5", "fig6", "fig8", "fig9"}

// runPaper regenerates the evaluation's tables and figures. Without -quick
// the experiments run at the paper's sizes (e.g. Fig. 9's 80 repetitions
// of 21 workflow executions).
func runPaper(args []string) error {
	fs := flag.NewFlagSet("paper", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment to run: "+strings.Join(paperExperiments, ", ")+", all")
	quick := fs.Bool("quick", false, "run reduced repetition counts")
	fs.Parse(args)
	selected := strings.ToLower(*exp)
	if selected != "all" && !slices.Contains(paperExperiments, selected) {
		return fmt.Errorf("unknown experiment %q (want %s or all)", *exp, strings.Join(paperExperiments, ", "))
	}
	want := func(name string) bool { return selected == "all" || selected == name }
	emit := func(text string) { fmt.Print(text, "\n\n") }

	if want("table1") {
		emit(experiments.RenderTable1())
	}
	if want("fig4") {
		opt := experiments.Fig4Options{}
		if *quick {
			opt.Runs = 1
		}
		res, err := experiments.Fig4(opt)
		if err != nil {
			return err
		}
		emit(res.Render())
	}
	if want("table2") || want("fig5") || want("fig6") {
		opt := experiments.Table2Options{}
		if *quick {
			opt.Runs = 1
			opt.Workers = []int{1, 2, 4, 8, 16, 32, 64, 128}
		}
		res, err := experiments.Table2(opt)
		if err != nil {
			return err
		}
		if want("table2") || want("fig5") {
			emit(res.Render())
		}
		if want("fig6") {
			emit(res.RenderFig6())
		}
	}
	if want("fig8") {
		opt := experiments.Fig8Options{}
		if *quick {
			opt.Runs = 2
		}
		res, err := experiments.Fig8(opt)
		if err != nil {
			return err
		}
		emit(res.Render())
	}
	if want("fig9") {
		opt := experiments.Fig9Options{}
		if *quick {
			opt.Reps = 10
		}
		res, err := experiments.Fig9(opt)
		if err != nil {
			return err
		}
		emit(res.Render())
	}
	return nil
}

// runInspect analyzes a static workflow without executing it.
func runInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	wfPath := fs.String("w", "", "workflow file (required)")
	lang := fs.String("lang", "", "force workflow language")
	var binds multiFlag
	fs.Var(&binds, "bind", "bind a Galaxy input: name=path (repeatable)")
	fs.Parse(args)
	if *wfPath == "" {
		return fmt.Errorf("missing -w workflow file")
	}
	bindMap, err := parseBinds(binds)
	if err != nil {
		return err
	}
	driver, language, err := buildDriver(*wfPath, *lang, bindMap)
	if err != nil {
		return err
	}
	static, ok := driver.(wf.StaticDriver)
	if !ok {
		return fmt.Errorf("inspect needs a static workflow language; %s workflows unfold at run time (§3.3)",
			language)
	}
	if _, err := static.Parse(); err != nil {
		return err
	}
	fmt.Printf("workflow %s\n", static.Name())
	fmt.Print(wf.Analyze(static.Graph()).Render())
	return nil
}
