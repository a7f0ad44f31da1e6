// Command hiway is the client for submitting scientific workflows, the
// analogue of the paper's light-weight client program (§3.1). It executes a
// workflow written in any supported language (Cuneiform, Pegasus DAX,
// Galaxy, CWL, or a Hi-WAY provenance trace) either with real processes on
// the local machine or on a simulated YARN cluster.
//
// `hiway help` lists every subcommand with the flags it takes, and `hiway
// SUBCOMMAND -h` describes them.
//
// Each -w of `hiway sim` becomes an independent workflow shard simulated on
// its own cluster by a pool of -shard-workers goroutines (default
// GOMAXPROCS), with stdout, per-shard artifact files (out.json.shard00, ...),
// and the merged provenance stream all byte-identical to a serial
// -shard-workers=1 run. See OBSERVABILITY.md for the span and metric
// taxonomy of -trace and -metrics.
//
// The language is detected from the file extension (.cf/.cuneiform, .dax/
// .xml, .ga [Galaxy JSON], .cwl [CWL JSON], .jsonl/.trace) with a content
// sniff for unknown extensions, and can be forced with -lang.
package main

import (
	"bytes"
	"context"
	"errors"
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
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// command is one subcommand. flags declares its flags on fs, each bound into
// the config it fills, and returns the action that runs once they have
// parsed; about is its description in `hiway help`.
type command struct {
	name  string
	flags func(fs *flagSet) action
	about string
}

// action runs a subcommand, printing to stdout and reporting to stderr.
type action func(stdout, stderr io.Writer) error

// commands drives dispatch and `hiway help`, in the order help lists them.
var commands = []command{
	{"local", runLocal, `run the workflow with real processes on this machine`},
	{"sim", runSim, `run the workflow(s) on a simulated YARN cluster; repeated -w flags
become independent shards simulated in parallel with deterministic
merged output`},
	{"inspect", runInspect, `analyze a static workflow's structure without running it`},
	{"prov", runProv, `query a provenance store (-trace FILE.jsonl or -db FILE.db): workflow,
task, and node summaries, or one targeted query with -query 'lineage
PATH', 'diff RUN-A RUN-B', or 'memo-hits [RUN]'`},
	{"verify", runVerify, `property-based verification: run seeded random scenarios under every
scheduling policy plus a kill/resume variant, auditing runtime
invariants; a failing seed is minimized into a reproducer (TESTING.md);
-portability forces the cross-language family so every seed is also
round-tripped through the Cuneiform and CWL frontends; -memo forces
the memoization family (cold/warm/kill-resume memo runs checked
against the memo-off baseline)`},
	{"load", runLoad, `multi-tenant service load: an open-loop tenant mix submits workflows
through admission control onto one simulated cluster; -ladder sweeps
the arrival rate and emits the BENCH_service.json points; -memo shares
one cross-tenant memo table so repeated pipelines splice their
provenance-recorded outputs instead of re-executing`},
	{"elastic", runElastic, `elastic cluster under churn: the service-tier tenant mix runs on a
fleet sized by an autoscaling policy (static, reactive, predictive)
with graceful node drains and optional spot-preemption chaos; -ladder
sweeps the policy grid and emits the BENCH_elastic.json points`},
	{"serve", runServe, `network service front-end: accept workflow submissions over HTTP
(POST /v1/workflows), run each admitted workflow concurrently on its
own simulated substrate, stream status and events, and drain
gracefully on SIGINT/SIGTERM or POST /v1/drain; -deterministic
replays the seeded tenant mix on a virtual clock through the same
handlers instead of listening; -memo shares one cross-tenant memo
table and exposes GET /v1/provenance for lineage, cross-run diff,
and memo-hit attribution queries (SERVICE.md)`},
	{"paper", runPaper, `regenerate the tables and figures of the paper's evaluation (§4) on
the simulated substrate as text tables; -quick shrinks repetition
counts so the full set finishes in seconds`},
}

// run is the CLI: it runs the subcommand args[0] names with the flags that
// follow, and returns the exit code: 2 for a usage error, 1 for a failed run,
// 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	if slices.Contains([]string{"help", "-h", "--help"}, args[0]) {
		usage(stderr)
		return 0
	}
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == args[0] })
	if i < 0 {
		fmt.Fprintf(stderr, "hiway: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	fs := &flagSet{FlagSet: flag.NewFlagSet(args[0], flag.ContinueOnError)}
	fs.SetOutput(stderr)
	act := commands[i].flags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, check := range fs.checks {
		if err := check(); err != nil {
			fmt.Fprintln(stderr, err)
			fs.Usage()
			return 2
		}
	}
	if err := act(stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "hiway:", err)
		return 1
	}
	return 0
}

// usage writes `hiway help`: each command's synopsis, generated from its
// flag set, above its description.
func usage(w io.Writer) {
	fmt.Fprint(w, "hiway — scientific workflow execution engine\n\n")
	for _, c := range commands {
		fs := &flagSet{FlagSet: flag.NewFlagSet(c.name, flag.ContinueOnError)}
		c.flags(fs)
		line := "  hiway " + c.name
		indent := strings.Repeat(" ", len(line))
		fs.VisitAll(func(f *flag.Flag) {
			opt := " [-" + f.Name
			if arg, _ := flag.UnquoteUsage(f); arg != "" {
				opt += " " + arg
			}
			opt += "]"
			if last := line[strings.LastIndexByte(line, '\n')+1:]; len(last)+len(opt) > 80 {
				line += "\n" + indent
			}
			line += opt
		})
		fmt.Fprintf(w, "%s\n      %s\n\n", line, strings.ReplaceAll(c.about, "\n", "\n      "))
	}
	fmt.Fprintf(w, "Supported languages: cuneiform (.cf), dax (.dax/.xml), galaxy (.ga), cwl (.cwl), trace (.jsonl)\nScheduling policies: %s\n",
		strings.Join(scheduler.Policies, ", "))
}

// flagSet is a subcommand's flags and the checks their values must pass
// before it runs. Its methods declare the flags several subcommands share,
// each once.
type flagSet struct {
	*flag.FlagSet
	checks []func() error
}

// workflows declares the workflow input of local, sim and inspect, and
// returns the function that builds a driver for each -w, in flag order,
// with the language of the last.
func (fs *flagSet) workflows() func() ([]wf.Driver, string, error) {
	var paths, binds multiFlag
	fs.Var(&paths, "w", "workflow `file` (required; sim runs each of several as an independent shard)")
	forced := fs.String("lang", "", "force workflow language")
	fs.Var(&binds, "bind", "bind a Galaxy input: `name=path` (repeatable)")
	return func() ([]wf.Driver, string, error) {
		if len(paths) == 0 {
			return nil, "", errors.New("missing -w workflow file")
		}
		bindMap, err := parseBinds(binds)
		if err != nil {
			return nil, "", err
		}
		var language string
		drivers := make([]wf.Driver, len(paths))
		for i, path := range paths {
			if drivers[i], language, err = buildDriver(path, *forced, bindMap); err != nil {
				return nil, "", err
			}
		}
		return drivers, language, nil
	}
}

// cluster declares the cluster size and scheduling policy of sim, load and
// serve. Each flag's default is the value it is bound to, here and below.
func (fs *flagSet) cluster(nodes *int, policy *string) {
	fs.IntVar(nodes, "nodes", *nodes, "number of simulated worker nodes")
	fs.StringVar(policy, "policy", *policy, "per-workflow scheduling policy: "+strings.Join(scheduler.Policies, ", "))
	fs.check(positive("nodes", nodes), func() error {
		if !slices.Contains(scheduler.Policies, *policy) {
			return fmt.Errorf("invalid value %q for flag -policy: want one of %s", *policy, strings.Join(scheduler.Policies, ", "))
		}
		return nil
	})
}

// arrivals declares the arrival process and admission control of load,
// serve and elastic.
func (fs *flagSet) arrivals(seed *int64, duration, rate *float64, maxConcurrent, maxQueue *int) {
	fs.Int64Var(seed, "seed", *seed, "seed for arrivals and the simulated substrate (serve: with -deterministic)")
	fs.Float64Var(duration, "duration", *duration, "arrival window in simulated seconds (serve: with -deterministic)")
	fs.Float64Var(rate, "rate", *rate, "arrival-rate multiplier over the built-in tenant mix (serve: when no -tenant is given)")
	fs.IntVar(maxConcurrent, "max-concurrent", *maxConcurrent, "admission cap: concurrently running AMs")
	fs.IntVar(maxQueue, "max-queue", *maxQueue, "backpressure threshold: queued workflows before rejection")
	fs.check(positive("duration", duration), positive("rate", rate), positive("max-concurrent", maxConcurrent), positive("max-queue", maxQueue))
}

// retries declares the rejected clients' retries and the memo table of load
// and serve.
func (fs *flagSet) retries(after *float64, limit *int, memo *bool) {
	fs.Float64Var(after, "retry-after", *after, "client retry delay after a rejection, in seconds (serve: the 429 Retry-After hint)")
	fs.IntVar(limit, "retry-limit", *limit, "client retries after rejection before dropping (serve: with -deterministic)")
	fs.BoolVar(memo, "memo", false, "share a cluster-wide memo table across tenants: repeated tasks splice instead of executing")
	fs.check(positive("retry-after", after))
}

// chaos declares the chaos plan of sim and load.
func (fs *flagSet) chaos(spec *string, seed *int64) {
	fs.StringVar(spec, "chaos", "", "chaos plan, e.g. 'crashrate=0.1;hang=bowtie2@0:1;kill=node-03@60'")
	fs.Int64Var(seed, "chaos-seed", 1, "seed for chaos rate draws")
}

// outputs declares -metrics and, for a subcommand that records provenance,
// -prov.
func (fs *flagSet) outputs(prov bool) (metricsPath, provPath *string) {
	metricsPath = fs.String("metrics", "", "write a Prometheus text metrics snapshot to this file")
	if prov {
		provPath = fs.String("prov", "", "write the provenance trace (JSONL, re-executable) to this file")
	}
	return metricsPath, provPath
}

// ladder declares the ladder sweep of load and elastic.
func (fs *flagSet) ladder() (ladder, full *bool, jsonPath *string) {
	ladder = fs.Bool("ladder", false, "sweep the ladder (load: arrival rates; elastic: the policy x chaos grid) instead of a single run")
	full = fs.Bool("full", false, "with -ladder: the full ladder (load: with the overload rungs x2, x4; elastic: the full-length arrival window)")
	jsonPath = fs.String("json", "", "with -ladder: write the ladder points JSON to this file")
	return ladder, full, jsonPath
}

// check adds checks the flag values must pass before the subcommand runs.
func (fs *flagSet) check(checks ...func() error) { fs.checks = append(fs.checks, checks...) }

// positive checks that flag name's value is above zero. The subcommands'
// configs would replace zero or less with their default.
func positive[T int | int64 | float64](name string, v *T) func() error {
	return func() error {
		if *v > 0 {
			return nil
		}
		return fmt.Errorf("invalid value %q for flag -%s: must be positive", fmt.Sprint(*v), name)
	}
}

// multiFlag collects a repeated flag's values.
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
	return driver, language, err
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

func runLocal(fs *flagSet) action {
	workflows := fs.workflows()
	var cfg localexec.Config
	fs.StringVar(&cfg.WorkDir, "workdir", "", "staging directory (default: temp dir)")
	fs.IntVar(&cfg.Workers, "workers", 0, "parallel tasks (default: CPUs)")
	return func(stdout, _ io.Writer) error {
		drivers, _, err := workflows()
		if err != nil {
			return err
		}
		if cfg.WorkDir == "" {
			if cfg.WorkDir, err = os.MkdirTemp("", "hiway-local"); err != nil {
				return err
			}
		}
		rep, err := localexec.Run(drivers[len(drivers)-1], cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "workflow %s finished in %.2fs (%d tasks)\n", rep.WorkflowName, rep.MakespanSec, len(rep.Results))
		for _, out := range rep.Outputs {
			fmt.Fprintln(stdout, "output:", out)
		}
		return nil
	}
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

	out bytes.Buffer
	rep *core.Report // the report once the AM launched and the run ended: succeeded, failed or stalled
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
	s.eng.Run()
	if s.o != nil {
		s.env.Cluster.RecordMetrics(s.o.M())
	}
	s.rep, err = am.Report()
	if ferr := s.env.Prov.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(&s.out, s.rep.Summary())
	for _, out := range s.rep.Outputs {
		fmt.Fprintln(&s.out, "output:", out)
	}
	if s.gantt {
		fmt.Fprint(&s.out, s.rep.Gantt(100))
	}
	return nil
}

func runSim(fs *flagSet) action {
	workflows := fs.workflows()
	nodes, policy := 8, scheduler.PolicyDataAware
	fs.cluster(&nodes, &policy)
	metricsPath, provPath := fs.outputs(true)
	var chaosSpec string
	var chaosSeed int64
	fs.chaos(&chaosSpec, &chaosSeed)
	var cfg core.Config
	fs.Float64Var(&cfg.TaskTimeoutFloorSec, "timeout-floor", 0, "attempt timeout floor in seconds (0 disables timeouts)")
	fs.Float64Var(&cfg.TimeoutSlack, "timeout-slack", 3, "deadline = max(floor, p95 runtime x slack)")
	fs.BoolVar(&cfg.Speculate, "speculate", false, "race timed-out attempts against a duplicate on another node")
	shardWorkers := fs.Int("shard-workers", runtime.GOMAXPROCS(0), "goroutines simulating shards in parallel (outputs are identical at any value)")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON timeline to this file")
	decisionsPath := fs.String("decisions", "", "write the scheduler's per-decision log to this file")
	traceSample := fs.Int("trace-sample", 1, "keep every Nth counter sample in the trace")
	gantt := fs.Bool("gantt", false, "print a per-node text timeline after the run")
	timelinePath := fs.String("timeline", "", "write the per-task timeline CSV to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	var inputs multiFlag
	fs.Var(&inputs, "input", "stage an input file: `path=sizeMB` (repeatable)")
	fs.check(positive("timeout-slack", &cfg.TimeoutSlack), positive("shard-workers", shardWorkers), positive("trace-sample", traceSample))
	return func(stdout, _ io.Writer) error {
		drivers, _, err := workflows()
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
		n := len(drivers)
		shards := make([]*simShard, n)
		for i, driver := range drivers {
			r := &recipes.Recipe{
				Name:       "hiway-sim",
				Groups:     []recipes.NodeGroup{{Count: nodes, Spec: cluster.M3Large()}},
				SwitchMBps: 2000,
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
				s.o.T().SetSampleEvery(*traceSample)
				s.env.Obs = s.o
				s.env.RM.SetObs(s.o)
				s.env.Prov.SetObs(s.o)
			}
			if s.sched, err = scheduler.New(policy, scheduler.Deps{Locality: s.env.FS, Estimator: s.env.Prov, Obs: s.o}); err != nil {
				return err
			}
			s.cfg = cfg
			if chaosSpec != "" {
				plan, err := chaos.Parse(chaosSpec, chaosSeed)
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
		if slices.ContainsFunc(shards, func(s *simShard) bool { return s.rep == nil }) {
			return runErr
		}

		// --- Deterministic output phase, in shard order throughout.
		for _, s := range shards {
			stdout.Write(s.out.Bytes())
		}
		err = writeOutput(stdout, "heap profile:", *memProfile, func(w io.Writer) error {
			runtime.GC() // measure live objects, not garbage
			return pprof.WriteHeapProfile(w)
		})
		// perShard writes path, if asked for, once per shard: path itself for a
		// single-workflow run, path.shardNN with multiple workflows.
		perShard := func(label, path string, write func(s *simShard, w io.Writer) error) error {
			for i, s := range shards {
				p := path
				if n > 1 && path != "" {
					p = fmt.Sprintf("%s.shard%02d", path, i)
				}
				if err := writeOutput(stdout, label, p, func(w io.Writer) error { return write(s, w) }); err != nil {
					return err
				}
			}
			return nil
		}
		// Every artifact asked for is written, in this order, and the writes
		// that failed are reported together.
		err = errors.Join(err,
			perShard("timeline:", *timelinePath, func(s *simShard, w io.Writer) error { return writeString(s.rep.TimelineCSV())(w) }),
			perShard("trace:", *tracePath, func(s *simShard, w io.Writer) error { return s.o.T().WriteChrome(w) }),
			writeOutput(stdout, "metrics:", *metricsPath, func(w io.Writer) error {
				for i, s := range shards {
					if n > 1 {
						fmt.Fprintf(w, "# shard %02d: %s\n", i, s.driver.Name())
					}
					if err := s.o.M().WritePrometheus(w); err != nil {
						return err
					}
				}
				return nil
			}),
			perShard("decisions:", *decisionsPath, func(s *simShard, w io.Writer) error { return writeString(s.o.D().Render())(w) }),
			// One trace for all shards, ordered by (timestamp, shard, position).
			// A shard records in time order, so one workflow's trace is its
			// events as recorded. The file is created only now: -prov may name
			// the trace -w is replaying.
			writeOutput(stdout, "provenance trace:", *provPath, func(w io.Writer) error {
				stores := make([]*provenance.MemStore, n)
				for i, s := range shards {
					stores[i] = s.store
				}
				return provenance.WriteTrace(w, shard.MergeEvents(stores))
			}))
		if err != nil {
			return err
		}
		return runErr
	}
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

// writeOutput writes the artifact at path with write, if one was asked for,
// and names it on stdout after label.
func writeOutput(stdout io.Writer, label, path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if err := writeFile(path, write); err != nil {
		return err
	}
	fmt.Fprintln(stdout, label, path)
	return nil
}

// writeString is the write of an artifact whose content is s.
func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// runVerify drives the property-based scenario verifier: a batch of seeded
// random scenarios, each executed under the full scheduling-policy matrix
// plus a kill/resume variant, with runtime invariant auditing hooked into
// the RM and AM. The batch stops at the first failing seed, minimizes it,
// and emits a self-contained JSON reproducer that -repro re-checks.
func runVerify(fs *flagSet) action {
	seeds := fs.Int64("seeds", 50, "number of consecutive seeds to check")
	fs.check(positive("seeds", seeds))
	start := fs.Int64("start", 1, "first seed of the batch")
	// A policy matrix, unlike the one policy of the cluster's -policy.
	policy := fs.String("policy", "all", "policy matrix: 'all' or a comma-separated subset")
	fs.check(func() error {
		if *policy == "" || *policy == "all" {
			return nil
		}
		for _, p := range strings.Split(*policy, ",") {
			if !slices.Contains(scheduler.Policies, p) {
				return fmt.Errorf("invalid value %q for flag -policy: want all or a comma-separated subset of %s", *policy, strings.Join(scheduler.Policies, ", "))
			}
		}
		return nil
	})
	reproPath := fs.String("repro", "", "re-check a reproducer scenario JSON instead of generating a batch")
	outPath := fs.String("out", "", "write the minimized failing reproducer JSON to this file")
	verbose := fs.Bool("v", false, "print every seed's per-policy outcome, not just failures")
	noShrink := fs.Bool("no-shrink", false, "report the first failing seed without minimizing it")
	portability := fs.Bool("portability", false, "force the cross-language portability family on every seed (and on -repro)")
	memoFamily := fs.Bool("memo", false, "force the memoization family on every seed (and on -repro)")
	return func(stdout, _ io.Writer) error {
		opts := verify.Options{}
		if *policy != "" && *policy != "all" {
			opts.Policies = strings.Split(*policy, ",")
		}
		check := func(sc *verify.Scenario) *verify.Result {
			sc.Portability = sc.Portability || *portability
			sc.Memo = sc.Memo || *memoFamily
			return verify.CheckScenario(sc, opts)
		}
		report := func(sc *verify.Scenario, res *verify.Result) {
			fmt.Fprintf(stdout, "seed %d (%s, %d tasks, %d nodes, chaos %q): FAIL\n",
				sc.Seed, sc.Shape, sc.TotalTasks(), sc.Nodes, sc.Chaos)
			for _, f := range res.Failures {
				fmt.Fprintln(stdout, "  ", f)
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
			if res := check(sc); !res.OK() {
				report(sc, res)
				return fmt.Errorf("reproducer %s still fails (%d failures)", *reproPath, len(res.Failures))
			}
			fmt.Fprintf(stdout, "reproducer %s passes: all invariants hold\n", *reproPath)
			return nil
		}

		for seed := *start; seed < *start+*seeds; seed++ {
			sc := verify.Generate(seed)
			res := check(sc)
			if res.OK() {
				if *verbose {
					for _, run := range res.Runs {
						fmt.Fprintf(stdout, "seed %d (%s): %-10s ok  makespan %8.1fs  executed %d  recovered %d\n",
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
				fmt.Fprintf(stdout, "minimized to %d tasks, chaos %q after %d probes\n",
					repro.TotalTasks(), repro.Chaos, rep.Probes)
			}
			if *outPath != "" {
				if err := writeOutput(stdout, "reproducer:", *outPath, writeString(string(repro.Marshal()))); err != nil {
					return err
				}
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
						src, rerr := r.render(repro)
						if rerr != nil {
							fmt.Fprintf(stdout, "rendering %s: %v\n", r.ext, rerr)
							continue
						}
						if err := writeOutput(stdout, "reproducer workflow:", *outPath+r.ext, writeString(src)); err != nil {
							return err
						}
					}
				}
			} else {
				fmt.Fprintf(stdout, "reproducer (re-check with `hiway verify -repro FILE`):\n%s", repro.Marshal())
			}
			return fmt.Errorf("seed %d violated invariants", seed)
		}
		n := len(opts.Policies)
		if n == 0 {
			n = len(scheduler.Policies)
		}
		fmt.Fprintf(stdout, "verified %d seeds x %d policies (+resume variant): all invariants hold\n", *seeds, n)
		return nil
	}
}

// runElastic drives the service tier on a fleet sized by an autoscaling
// policy, optionally under spot-preemption chaos. With -ladder the policy ×
// chaos grid is swept and the points are emitted as BENCH_elastic.json.
func runElastic(fs *flagSet) action {
	cfg := experiments.ElasticLoadConfig{Seed: 1, DurationSec: 1800, RateX: 1, MaxConcurrent: 4, MaxQueue: 16}
	fs.arrivals(&cfg.Seed, &cfg.DurationSec, &cfg.RateX, &cfg.MaxConcurrent, &cfg.MaxQueue)
	fs.StringVar(&cfg.Autoscale, "autoscale", "static", "fleet sizing policy: static, reactive, or predictive")
	fs.IntVar(&cfg.StaticNodes, "static-nodes", 10, "fixed fleet size for the static policy")
	fs.IntVar(&cfg.MinNodes, "min-nodes", 2, "elastic fleet floor (and starting size)")
	fs.IntVar(&cfg.MaxNodes, "max-nodes", 12, "elastic fleet ceiling")
	fs.Float64Var(&cfg.SpotRate, "spot-rate", 0, "per-check spot reclaim probability per spot node (0 disables chaos)")
	fs.Float64Var(&cfg.SpotNoticeSec, "spot-notice", 120, "seconds between spot preemption notice and reclaim")
	fs.Float64Var(&cfg.SpotEverySec, "spot-every", 60, "seconds between spot market checks")
	fs.Float64Var(&cfg.TaskCPUSeconds, "task-cpu", 180, "CPU seconds per workflow task")
	fs.check(positive("static-nodes", &cfg.StaticNodes), positive("min-nodes", &cfg.MinNodes), positive("spot-notice", &cfg.SpotNoticeSec),
		positive("spot-every", &cfg.SpotEverySec), positive("task-cpu", &cfg.TaskCPUSeconds), func() error {
			if cfg.MaxNodes < cfg.MinNodes {
				return fmt.Errorf("invalid value %q for flag -max-nodes: below -min-nodes %d", fmt.Sprint(cfg.MaxNodes), cfg.MinNodes)
			}
			return nil
		})
	metricsPath, _ := fs.outputs(false)
	ladder, full, jsonPath := fs.ladder()
	return func(stdout, _ io.Writer) error {
		if *ladder {
			cfgs := experiments.ElasticSweepConfigs(*full)
			for i, rung := range cfgs {
				cfgs[i] = cfg
				cfgs[i].Autoscale = rung.Autoscale
				cfgs[i].SpotRate = rung.SpotRate
				cfgs[i].DurationSec = rung.DurationSec
			}
			res, err := experiments.ElasticSweep(cfgs)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, res.Render())
			return writeOutput(stdout, "ladder:", *jsonPath, writeString(string(res.JSON())))
		}

		cfg.WithObs = *metricsPath != ""
		run, err := experiments.ElasticLoad(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "elastic load: seed %d, %s autoscaling, %.0fs window, rate x%g\n",
			cfg.Seed, cfg.Autoscale, cfg.DurationSec, cfg.RateX)
		if cfg.SpotRate > 0 {
			fmt.Fprintf(stdout, "spot chaos: rate %g, notice %.0fs, every %.0fs\n",
				cfg.SpotRate, cfg.SpotNoticeSec, cfg.SpotEverySec)
		}
		fmt.Fprint(stdout, run.Render())
		return writeOutput(stdout, "metrics:", *metricsPath, run.Obs.M().WritePrometheus)
	}
}

// runLoad drives the multi-tenant service tier: an open-loop arrival
// process (the default tenant mix, scaled by -rate) submits workflow
// instances through admission control onto one simulated cluster, and the
// per-workflow accounting is printed when the run drains. Same-seed runs
// print byte-identical reports. With -ladder the arrival rate is swept and
// the measured points are emitted as BENCH_service.json.
func runLoad(fs *flagSet) action {
	cfg := experiments.ServiceLoadConfig{Seed: 1, Nodes: 8, DurationSec: 1800, RateX: 1, MaxConcurrent: 4,
		MaxQueue: 16, RetryAfterSec: 30, RetryLimit: 1, Policy: scheduler.PolicyFCFS}
	fs.cluster(&cfg.Nodes, &cfg.Policy)
	fs.arrivals(&cfg.Seed, &cfg.DurationSec, &cfg.RateX, &cfg.MaxConcurrent, &cfg.MaxQueue)
	fs.retries(&cfg.RetryAfterSec, &cfg.RetryLimit, &cfg.Memo)
	fs.chaos(&cfg.ChaosSpec, &cfg.ChaosSeed)
	metricsPath, _ := fs.outputs(false)
	ladder, full, jsonPath := fs.ladder()
	return func(stdout, _ io.Writer) error {
		if *ladder {
			cfgs := experiments.ServiceSweepConfigs(*full)
			for i, rung := range cfgs {
				cfgs[i] = cfg
				cfgs[i].RateX = rung.RateX
			}
			res, err := experiments.ServiceSweep(cfgs)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, res.Render())
			return writeOutput(stdout, "ladder:", *jsonPath, writeString(string(res.JSON())))
		}

		cfg.WithObs = *metricsPath != ""
		// A run in which a workflow stalled still reports and writes its
		// metrics; its error comes after them.
		run, runErr := experiments.ServiceLoad(cfg)
		if run == nil {
			return runErr
		}
		fmt.Fprintf(stdout, "service load: seed %d, %d nodes, %.0fs window, rate x%g, policy %s\n",
			cfg.Seed, cfg.Nodes, cfg.DurationSec, cfg.RateX, cfg.Policy)
		if cfg.ChaosSpec != "" {
			fmt.Fprintln(stdout, "chaos:", cfg.ChaosSpec)
		}
		if cfg.Memo {
			fmt.Fprintln(stdout, "memo: cross-tenant table enabled")
		}
		fmt.Fprint(stdout, run.Render())
		if err := writeOutput(stdout, "metrics:", *metricsPath, run.Obs.M().WritePrometheus); err != nil {
			return err
		}
		return runErr
	}
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
				p.MemoOptOut = v == "off"
				if v != "on" && v != "off" {
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
func runServe(fs *flagSet) action {
	cfg := service.ServerConfig{Nodes: 8, Policy: scheduler.PolicyFCFS, MaxConcurrent: 8, MaxQueue: 64, RetryAfterSec: 5, RetryLimit: 1}
	seed, duration, rate := int64(1), 600.0, 1.0
	fs.cluster(&cfg.Nodes, &cfg.Policy)
	fs.arrivals(&seed, &duration, &rate, &cfg.MaxConcurrent, &cfg.MaxQueue)
	fs.retries(&cfg.RetryAfterSec, &cfg.RetryLimit, &cfg.Memo)
	metricsPath, provPath := fs.outputs(true)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	var tenants multiFlag
	fs.Var(&tenants, "tenant", "tenant profile `spec` 'name[,weight=N][,containers=N][,inflight=N][,rate=R][,burst=N][,memo=off]' (repeatable; default: built-in mix)")
	fs.BoolVar(&cfg.Deterministic, "deterministic", false, "seeded virtual-clock replay through the same handlers instead of listening")
	multisetPath := fs.String("multiset", "", "write the completed-task multiset to this file at drain")
	drainTimeout := fs.Float64("drain-timeout", 120, "seconds to wait for in-flight runs at shutdown before exiting anyway")
	return func(stdout, stderr io.Writer) error {
		profiles, err := parseTenantProfiles(tenants)
		if err != nil {
			return err
		}
		if len(tenants) == 0 {
			profiles = experiments.ServiceTenantMix(rate)
		}
		srv, err := service.NewServer(cfg, profiles)
		if err != nil {
			return err
		}

		drained := true
		if cfg.Deterministic {
			fmt.Fprintf(stdout, "serve: deterministic replay, seed %d, %.0fs window, %d tenants, policy %s\n",
				seed, duration, len(profiles), cfg.Policy)
			if err := srv.RunDeterministic(seed, duration); err != nil {
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
			fmt.Fprintf(stdout, "serve: listening on http://%s (%d tenants, policy %s)\n", ln.Addr(), len(profiles), cfg.Policy)

			sigCh := make(chan os.Signal, 1)
			signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
			defer signal.Stop(sigCh)
			select {
			case err := <-serveErr:
				return err
			case s := <-sigCh:
				fmt.Fprintf(stderr, "serve: %v: draining\n", s)
				srv.StartDrain()
			case <-srv.Drained():
				// drained via POST /v1/drain
			}
			select {
			case <-srv.Drained():
			case <-time.After(time.Duration(*drainTimeout * float64(time.Second))):
				drained = false
				fmt.Fprintln(stderr, "serve: drain timeout; exiting with runs in flight")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = hs.Shutdown(ctx)
			cancel()
		}
		if drained {
			srv.Wait()
		}

		st := srv.Stats()
		fmt.Fprintf(stdout, "serve: submitted %d  accepted %d  rejected %d  dropped %d  completed %d  failed %d  peak-running %d\n",
			st.Submitted, st.Accepted, st.Rejected, st.Dropped, st.Completed, st.Failed, st.PeakRunning)
		if *provPath != "" {
			merged := srv.MergedProvenance()
			if err := writeFile(*provPath, func(w io.Writer) error { return provenance.WriteTrace(w, merged) }); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "prov: %s (%d events)\n", *provPath, len(merged))
		}
		if err := writeOutput(stdout, "metrics:", *metricsPath, srv.Obs().M().WritePrometheus); err != nil {
			return err
		}
		return writeOutput(stdout, "multiset:", *multisetPath, writeString(string(srv.Multiset())))
	}
}

// runProv prints summaries over a provenance store — the manual-query
// capability §3.5 attributes to database-backed provenance.
func runProv(fs *flagSet) action {
	tracePath := fs.String("trace", "", "JSONL trace file")
	dbPath := fs.String("db", "", "provdb log file")
	query := fs.String("query", "", "run one query instead of the summaries: 'lineage PATH', 'diff RUN-A RUN-B', or 'memo-hits [RUN]'")
	return func(stdout, _ io.Writer) error {
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

		if *query == "" {
			sum, err := provenance.Summarize(store)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, sum.Render())
			return nil
		}
		q, err := provenance.ParseQuery(*query)
		if err != nil {
			return err
		}
		out, err := provenance.RunQuery(store, q)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
		return nil
	}
}

// paperExperiments are the -exp names of `hiway paper`, besides "all".
var paperExperiments = []string{"table1", "fig4", "table2", "fig5", "fig6", "fig8", "fig9"}

// runPaper regenerates the evaluation's tables and figures. Without -quick
// the experiments run at the paper's sizes (e.g. Fig. 9's 80 repetitions
// of 21 workflow executions).
func runPaper(fs *flagSet) action {
	exp := fs.String("exp", "all", "experiment to run: "+strings.Join(paperExperiments, ", ")+", all")
	quick := fs.Bool("quick", false, "run reduced repetition counts")
	return func(stdout, _ io.Writer) error {
		selected := strings.ToLower(*exp)
		if selected != "all" && !slices.Contains(paperExperiments, selected) {
			return fmt.Errorf("unknown experiment %q (want %s or all)", *exp, strings.Join(paperExperiments, ", "))
		}
		want := func(name string) bool { return selected == "all" || selected == name }
		emit := func(text string) { fmt.Fprint(stdout, text, "\n\n") }

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
}

// runInspect analyzes a static workflow without executing it.
func runInspect(fs *flagSet) action {
	workflows := fs.workflows()
	return func(stdout, _ io.Writer) error {
		drivers, language, err := workflows()
		if err != nil {
			return err
		}
		static, ok := drivers[len(drivers)-1].(wf.StaticDriver)
		if !ok {
			return fmt.Errorf("inspect needs a static workflow language; %s workflows unfold at run time (§3.3)",
				language)
		}
		if _, err := static.Parse(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "workflow %s\n", static.Name())
		fmt.Fprint(stdout, wf.Analyze(static.Graph()).Render())
		return nil
	}
}
