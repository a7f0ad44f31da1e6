package verify

import (
	"fmt"
	"sort"
	"strings"

	"hiway/internal/autoscale"
	"hiway/internal/chaos"
	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/memo"
	"hiway/internal/scheduler"
	"hiway/internal/sim"
	"hiway/internal/wf"
)

// staticPolicies cannot drive workflows that unfold at run time.
var staticPolicies = map[string]bool{
	scheduler.PolicyRoundRobin: true,
	scheduler.PolicyHEFT:       true,
}

// Options tunes a verification run.
type Options struct {
	// Policies selects the differential matrix; nil means every policy in
	// scheduler.Policies. Static policies are skipped automatically for
	// iterative scenarios (§3.4).
	Policies []string
	// Tamper, if set, runs against each freshly materialized environment
	// before the workflow launches — the hook tests use to inject deliberate
	// accounting bugs and prove the auditor catches them.
	Tamper func(env core.Env)
	// SkipResume disables the kill/resume variant.
	SkipResume bool
}

// resumeFraction places the kill of every kill/resume run: at this
// fraction of its baseline's makespan, and never before 5 s.
const resumeFraction = 0.5

func killPoint(baseline *PolicyRun) float64 {
	return max(resumeFraction*baseline.MakespanSec, 5)
}

func (o Options) policies() []string {
	if len(o.Policies) > 0 {
		return o.Policies
	}
	return scheduler.Policies
}

// PolicyRun is the audited outcome of one scenario execution.
type PolicyRun struct {
	Policy      string         `json:"policy"`
	Lang        string         `json:"lang,omitempty"` // portability runs: rendering language
	Succeeded   bool           `json:"succeeded"`
	Err         string         `json:"err,omitempty"`
	MakespanSec float64        `json:"makespanSec"`
	Completed   map[string]int `json:"-"` // structural task key → completions
	Outputs     []string       `json:"outputs,omitempty"`
	Violations  []Violation    `json:"violations,omitempty"`
	Recovered   int            `json:"recovered,omitempty"`  // resume variant only
	Executed    int            `json:"executed"`             // tasks run to completion
	Memoized    int            `json:"memoized,omitempty"`   // tasks spliced from the memo table
	Containers  int64          `json:"containers,omitempty"` // worker containers allocated

	// Canonical and CanonOutputs are the path-independent outcome of a
	// portability run (Lang != ""): the canonical lineage multiset and the
	// canonicalized final outputs (see portability.go).
	Canonical    map[string]int `json:"-"`
	CanonOutputs []string       `json:"-"`

	// A run whose AM was killed and resumed records how many tasks had
	// completed at the kill and when the engine quiesced, for the resume
	// family's coverage checks.
	killed bool
	atKill int
	endSec float64
}

// capture folds a finished report into the run: completion multiset,
// sorted outputs, the auditor's final verdict, and — for portability runs —
// the canonical outcome.
func (run *PolicyRun) capture(rep *core.Report, aud *Auditor) {
	run.Succeeded = rep.Succeeded
	if rep.Err != nil {
		run.Err = rep.Err.Error()
	}
	run.MakespanSec = rep.MakespanSec
	run.Executed = len(rep.Results)
	run.Memoized = rep.Memoized
	run.Containers = rep.Containers
	for _, res := range rep.Results {
		if res.Succeeded() {
			run.Completed[structuralKey(res.Task.Name, res.Task.Inputs, res.Task.DeclaredPaths())]++
		}
	}
	run.Outputs = append([]string(nil), rep.Outputs...)
	sort.Strings(run.Outputs)
	run.Violations = aud.FinalCheck(rep.Succeeded)
	if run.Lang != "" {
		run.Canonical, run.CanonOutputs = CanonicalOutcome(rep.Results, rep.Outputs)
	}
}

// Result is the differential verdict for one scenario.
type Result struct {
	Scenario *Scenario   `json:"scenario"`
	Runs     []PolicyRun `json:"runs"`
	Failures []string    `json:"failures,omitempty"`
}

// OK reports whether every policy satisfied every invariant and all runs
// agreed.
func (r *Result) OK() bool { return len(r.Failures) == 0 }

// structuralKey identifies a task across runs and AM incarnations, where
// numeric task IDs are meaningless: signature plus sorted inputs plus
// sorted outputs.
func structuralKey(name string, inputs, outputs []string) string {
	in := append([]string(nil), inputs...)
	out := append([]string(nil), outputs...)
	sort.Strings(in)
	sort.Strings(out)
	return name + "|" + strings.Join(in, ",") + "|" + strings.Join(out, ",")
}

// expectedCompletions is the multiset of structural task keys a successful
// run of the scenario must complete, straight from the specs.
func (s *Scenario) expectedCompletions() map[string]int {
	exp := make(map[string]int, s.TotalTasks())
	for _, t := range s.Tasks {
		exp[structuralKey(t.Name, t.Inputs, t.Outputs)]++
	}
	for _, t := range s.IterTasks {
		exp[structuralKey(t.Name, t.Inputs, t.Outputs)]++
	}
	return exp
}

// buildRun wires one fresh execution environment for the scenario: chaos
// plan (parsed and armed anew — plans carry mutable rule counters), auditor
// hooked into RM and AM, scheduler, and AM config. A non-nil tab enables
// memoization against that table. It returns everything the caller needs to
// launch.
func (s *Scenario) buildRun(policy string, tamper func(core.Env), tab *memo.Table) (*runCtx, error) {
	eng, env, err := s.Materialize()
	if err != nil {
		return nil, fmt.Errorf("materialize: %w", err)
	}
	if tamper != nil {
		tamper(env)
	}
	aud := NewAuditor(env)
	for _, in := range s.Inputs {
		aud.Grant(in.Path)
	}
	env.RM.SetAudit(aud)
	cfg := core.Config{
		WorkflowID:          fmt.Sprintf("verify-%d-%s", s.Seed, policy),
		ContainerVCores:     1,
		ContainerMemMB:      1024,
		MaxRetries:          5,
		AMNode:              "node-00",
		TaskTimeoutFloorSec: s.TimeoutFloorSec,
		Speculate:           s.Speculate,
		Audit:               aud,
		Memo:                tab,
	}
	var health *scheduler.NodeHealthTracker
	if s.Chaos != "" {
		plan, err := chaos.Parse(s.Chaos, s.ChaosSeed)
		if err != nil {
			return nil, fmt.Errorf("chaos plan: %w", err)
		}
		plan.Arm(eng, env.RM, env.FS, env.Cluster)
		cfg.Chaos = plan
		health = scheduler.NewNodeHealthTracker(eng.Now, 3, 60)
		cfg.Health = health
	}
	if s.Elastic != nil {
		mgr := autoscale.NewManager(eng, env.Cluster, env.RM, env.FS, autoscale.ManagerConfig{
			Spec:             cluster.M3Large(),
			DrainDeadlineSec: s.Elastic.DrainDeadlineSec,
			SpotNoticeSec:    s.Elastic.SpotNoticeSec,
			Protected:        []string{"node-00"},
			Rereplicate:      true,
			Health:           health,
		})
		s.Elastic.arm(eng, mgr)
	}
	sched, err := scheduler.New(policy, scheduler.Deps{Locality: env.FS, Estimator: env.Prov})
	if err != nil {
		return nil, fmt.Errorf("scheduler: %w", err)
	}
	return &runCtx{eng: eng, env: env, aud: aud, sched: sched, cfg: cfg}, nil
}

type runCtx struct {
	eng   *sim.Engine
	env   core.Env
	aud   *Auditor
	sched scheduler.Scheduler
	cfg   core.Config
}

// runSpec is one audited execution of a scenario.
type runSpec struct {
	name   string           // the run's Policy: a policy, "resume", or a memo run
	lang   string           // a rendering's language; "" for the spec driver
	driver func() wf.Driver // called once per AM incarnation, as a restart re-reads its source
	policy string
	memo   *memo.Table // nil: memoization off
	killAt float64     // > 0: kill the AM at this virtual time and resume it
}

// policySpecs is one plain run of driver per requested policy. Static
// planners are left out when the workflow unfolds at run time (§3.4) or a
// node the chaos plan kills or the elastic plan drains would take part of
// their up-front plan with it.
func (s *Scenario) policySpecs(policies []string, driver func() wf.Driver, lang string, static bool) []runSpec {
	var specs []runSpec
	for _, p := range policies {
		if staticPolicies[p] && (!static || s.KillsNode() || s.Elastic.Disruptive()) {
			continue
		}
		specs = append(specs, runSpec{name: p, lang: lang, driver: driver, policy: p})
	}
	return specs
}

// execute runs spec on a fresh substrate and audits it. A kill/resume run
// kills the AM at killAt and resumes a second incarnation from provenance
// on the surviving substrate: the cluster, HDFS, the armed chaos plan and
// the auditor's RM-level state span both incarnations, only AM state is
// lost. A run that beats the kill point is audited as it stands, and a
// resumed run that fails is reported without the partial audit.
func (s *Scenario) execute(spec runSpec, tamper func(core.Env)) PolicyRun {
	run := PolicyRun{Policy: spec.name, Lang: spec.lang, Completed: map[string]int{}}
	ctx, err := s.buildRun(spec.policy, tamper, spec.memo)
	if err != nil {
		run.Err = err.Error()
		return run
	}
	am, err := core.Launch(ctx.env, spec.driver(), ctx.sched, ctx.cfg)
	if err != nil {
		run.Err, run.Violations = err.Error(), ctx.aud.Violations()
		return run
	}
	if spec.killAt == 0 {
		ctx.eng.Run()
	} else if ctx.eng.RunUntil(spec.killAt); !am.Finished() {
		run.killed, run.atKill = true, am.CompletedTasks()
		am.Kill()
		// OnResume clears the per-incarnation task bookkeeping and keeps
		// container, capacity and node-death history, so late defensive
		// re-releases of first-incarnation containers stay legitimate.
		ctx.aud.OnResume()
		sched, err := scheduler.New(spec.policy, scheduler.Deps{Locality: ctx.env.FS, Estimator: ctx.env.Prov})
		if err != nil {
			run.Err = err.Error()
			return run
		}
		if am, err = core.Resume(ctx.env, spec.driver(), sched, ctx.cfg, ctx.env.Prov.Store()); err != nil {
			run.Err, run.Violations = fmt.Sprintf("resume: %v", err), ctx.aud.Violations()
			return run
		}
		ctx.eng.Run()
	}
	rep, err := am.Report()
	if err != nil {
		run.Err = err.Error()
		if spec.killAt == 0 {
			run.Violations = ctx.aud.Violations()
		}
		return run
	}
	run.Recovered = rep.Recovered
	run.capture(rep, ctx.aud)
	run.endSec = ctx.eng.Now()
	return run
}

// expectation is what judge holds a run to beyond its own audit: the
// scenario's completion multiset, a baseline run's completions and outputs
// (outputs only for a kill/resume run, whose recovered tasks are rebuilt
// from provenance and never appear among its completions), and for a
// rendering the spec's canonical outcome.
type expectation struct {
	scenario    map[string]int
	baseline    *PolicyRun
	outputsOnly bool
	canonical   map[string]int
	canonOuts   []string
}

// judge lists what is wrong with r, each failure prefixed with tag: its
// violations, a failed workflow, and every way it departs from e.
func (e expectation) judge(tag string, r *PolicyRun) []string {
	var fails []string
	failf := func(format string, args ...any) {
		fails = append(fails, tag+": "+fmt.Sprintf(format, args...))
	}
	for _, v := range r.Violations {
		failf("%s", v)
	}
	if !r.Succeeded {
		failf("workflow failed: %s", r.Err)
		return fails
	}
	if e.scenario != nil {
		if d := diffCompleted(e.scenario, r.Completed); d != "" {
			failf("completed set diverges from scenario: %s", d)
		}
	}
	if b := e.baseline; b != nil {
		if !e.outputsOnly {
			if d := diffCompleted(b.Completed, r.Completed); d != "" {
				failf("completed set diverges from %s: %s", b.Policy, d)
			}
		}
		if strings.Join(b.Outputs, "\n") != strings.Join(r.Outputs, "\n") {
			failf("outputs %v differ from %s outputs %v", r.Outputs, b.Policy, b.Outputs)
		}
	}
	if e.canonical != nil {
		if d := diffCompleted(e.canonical, r.Canonical); d != "" {
			failf("canonical completions diverge from spec: %s", d)
		}
		if strings.Join(r.CanonOutputs, "\n") != strings.Join(e.canonOuts, "\n") {
			failf("canonical outputs %v, want %v", r.CanonOutputs, e.canonOuts)
		}
	}
	return fails
}

// family collects one verifier family's audited runs and failures.
type family struct {
	sc     *Scenario
	tamper func(core.Env)
	runs   []PolicyRun
	fails  []string
}

// run executes spec and records the run.
func (f *family) run(spec runSpec) *PolicyRun {
	f.runs = append(f.runs, f.sc.execute(spec, f.tamper))
	return &f.runs[len(f.runs)-1]
}

// judge records what is wrong with r and reports whether it succeeded.
func (f *family) judge(tag string, r *PolicyRun, e expectation) bool {
	f.fails = append(f.fails, e.judge(tag, r)...)
	return r.Succeeded
}

func (f *family) failf(format string, args ...any) {
	f.fails = append(f.fails, fmt.Sprintf(format, args...))
}

// zeroReexecution is the resume family's coverage check on a resumed spec
// run: recovery rebuilt exactly what had completed at the kill, and nothing
// completed ran again. Only the spec driver is held to it: a rendering's
// second incarnation runs under a name of its own (see portDrivers), matches
// nothing in provenance and re-executes the whole workflow.
func (s *Scenario) zeroReexecution(r *PolicyRun) []Violation {
	if !r.killed || !r.Succeeded {
		return nil
	}
	var out []Violation
	if r.Recovered != r.atKill {
		out = append(out, Violation{TimeSec: r.endSec, Invariant: "zero-reexecution",
			Detail: fmt.Sprintf("recovered %d tasks, %d had completed at the kill", r.Recovered, r.atKill)})
	}
	if r.Recovered+r.Executed != s.TotalTasks() {
		out = append(out, Violation{TimeSec: r.endSec, Invariant: "zero-reexecution",
			Detail: fmt.Sprintf("recovered %d + executed %d != %d total tasks (completed work re-ran)",
				r.Recovered, r.Executed, s.TotalTasks())})
	}
	return out
}

// diffCompleted renders the difference between two completion multisets.
func diffCompleted(want, got map[string]int) string {
	var missing, extra []string
	for k, n := range want {
		if got[k] < n {
			missing = append(missing, k)
		}
	}
	for k, n := range got {
		if want[k] < n {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	var parts []string
	if len(missing) > 0 {
		parts = append(parts, fmt.Sprintf("missing %v", missing))
	}
	if len(extra) > 0 {
		parts = append(parts, fmt.Sprintf("extra %v", extra))
	}
	return strings.Join(parts, "; ")
}

// CheckScenario executes the scenario under every requested policy plus the
// kill/resume variant and returns the differential verdict: per-run
// invariant violations, policy-vs-policy disagreement on the completed task
// multiset or final outputs, and replay divergence all become Failures.
func CheckScenario(sc *Scenario, opts Options) *Result {
	f := &family{sc: sc, tamper: opts.Tamper}
	expected := sc.expectedCompletions()

	// The first run that succeeds is the baseline every later one must match.
	var baseline *PolicyRun
	for _, spec := range sc.policySpecs(opts.policies(), sc.Driver, "", !sc.Iterative()) {
		r := f.run(spec)
		if f.judge("policy "+spec.policy, r, expectation{scenario: expected, baseline: baseline}) && baseline == nil {
			baseline = r
		}
	}

	if sc.Service != nil {
		r := runService(sc, opts.Tamper)
		f.runs = append(f.runs, r)
		for _, v := range r.Violations {
			f.failf("service: %s", v)
		}
		if r.Err != "" {
			f.failf("service: %s", r.Err)
		}
	}

	if !opts.SkipResume && baseline != nil {
		r := f.run(runSpec{name: "resume", driver: sc.Driver, policy: scheduler.PolicyFCFS, killAt: killPoint(baseline)})
		r.Violations = append(r.Violations, sc.zeroReexecution(r)...)
		f.judge("resume", r, expectation{baseline: baseline, outputsOnly: true})
	}

	if sc.Portability {
		runs, fails := runPortability(sc, opts)
		f.runs, f.fails = append(f.runs, runs...), append(f.fails, fails...)
	}
	if sc.Memo && baseline != nil {
		runs, fails := runMemoFamily(sc, baseline, opts)
		f.runs, f.fails = append(f.runs, runs...), append(f.fails, fails...)
	}
	return &Result{Scenario: sc, Runs: f.runs, Failures: f.fails}
}
