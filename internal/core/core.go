package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"hiway/internal/chaos"
	"hiway/internal/cluster"
	"hiway/internal/hdfs"
	"hiway/internal/memo"
	"hiway/internal/obs"
	"hiway/internal/provenance"
	"hiway/internal/scheduler"
	"hiway/internal/sim"
	"hiway/internal/wf"
	"hiway/internal/yarn"
)

// Env bundles the platform a workflow executes on.
type Env struct {
	Cluster *cluster.Cluster
	FS      *hdfs.FS
	RM      *yarn.ResourceManager
	Prov    *provenance.Manager // optional
	Obs     *obs.Obs            // optional observability; nil disables every hook
}

// HealthReporter receives per-attempt node outcomes; the AM reports every
// success, failure, and timeout. scheduler.NodeHealthTracker implements it
// (and, via scheduler.NodeHealth, feeds the blacklist all policies consult).
type HealthReporter interface {
	ReportSuccess(node string)
	ReportFailure(node string)
}

// Config tunes one workflow execution.
type Config struct {
	// WorkflowID uniquely identifies the run in provenance; derived from
	// the driver name and the RM's application ID if empty, which is unique
	// per RM only — callers recording runs of several RMs into one store
	// name each run. Resume requires it to match the crashed run's ID.
	WorkflowID string

	// Tenant attributes the workflow's YARN application to a tenant; the
	// RM's TenantPolicy for it (weight, quota cap) then governs the
	// workflow's worker containers. Empty means untenanted.
	Tenant string

	// ContainerVCores/ContainerMemMB size the identical worker containers
	// (the paper's default mode: all containers share one configuration).
	ContainerVCores int // default 1
	ContainerMemMB  int // default 1024

	// MaxRetries is how many times a failed task is re-tried on another
	// node before the workflow fails. Default 3.
	MaxRetries int

	// AMNode optionally pins the AM container (experiments isolate it on
	// a master node).
	AMNode string

	// Behavior computes what a simulated task produces; defaults to the
	// declared outputs with exit code 0.
	Behavior wf.Behavior

	// Chaos, if set, decides the fate of every attempt (run, crash, or
	// hang forever). chaos.Plan implements it deterministically.
	Chaos chaos.Injector

	// Health, if set, receives the outcome of every attempt per node.
	// When the scheduler is HealthAware and Health implements
	// scheduler.NodeHealth (as NodeHealthTracker does), the AM wires the
	// two together so blacklisted nodes stop receiving tasks.
	Health HealthReporter

	// TaskTimeoutFloorSec enables per-attempt deadlines: an attempt's
	// deadline is max(floor, p95 runtime × TimeoutSlack), with the p95
	// taken from provenance. Zero disables timeouts (and with them,
	// speculation) — a hung attempt then stalls the workflow loudly.
	TaskTimeoutFloorSec float64

	// TimeoutSlack multiplies the p95 runtime estimate; default 3.
	TimeoutSlack float64

	// Speculate launches a duplicate attempt on another node when the
	// deadline passes (at most one duplicate per task) instead of killing
	// the attempt outright; the faster copy wins, the loser is canceled
	// and its container released.
	Speculate bool

	// Audit, if set, observes the AM's task lifecycle so an external
	// invariant auditor (internal/verify) can check ordering and terminal-
	// state properties on every event. Nil disables auditing entirely.
	Audit AuditSink

	// Memo, if set, is the cluster-wide memo table: a submitted task whose
	// canonical key (signature, container profile, canonical input set,
	// declared outputs) hits skips execution entirely and splices the
	// recorded outputs; successful executions matching their declaration
	// commit entries for later runs. Nil disables memoization.
	Memo *memo.Table

	// MemoPrefix is the run-scoped staging prefix stripped from paths when
	// deriving memo keys, so tenant- or run-private staging roots do not
	// fragment the cross-tenant table.
	MemoPrefix string

	// OnTerminal, if set, fires exactly once when the AM terminates with a
	// report (success or failure), after all containers are released and the
	// application is finished. Kill does not fire it (a killed AM leaves no
	// report). The service tier uses it to drive queued→admitted→finished
	// lifecycle accounting.
	OnTerminal func(*Report)
}

// AuditSink observes AM task-lifecycle events. The verify layer's invariant
// auditor implements it; hooks run synchronously inside the AM and must not
// call back into it.
type AuditSink interface {
	// OnTaskSubmitted fires when a ready task is handed to the scheduler
	// (once per task instance; retries do not re-fire it).
	OnTaskSubmitted(now float64, t *wf.Task)
	// OnAttemptStart fires when an attempt begins on a container.
	OnAttemptStart(now float64, t *wf.Task, node string, attempt int)
	// OnAttemptEnd fires when an attempt finishes, is canceled, or is lost.
	// accepted is true only for the attempt whose result completed the task.
	OnAttemptEnd(now float64, t *wf.Task, node string, attempt int, exitCode int, accepted bool)
	// OnTaskCompleted fires exactly once per task, when its first
	// successful attempt is accepted.
	OnTaskCompleted(now float64, t *wf.Task, node string)
	// OnWorkflowEnd fires when the AM terminates, successfully or not.
	OnWorkflowEnd(now float64, succeeded bool)
}

func (c *Config) setDefaults() {
	if c.ContainerVCores <= 0 {
		c.ContainerVCores = 1
	}
	if c.ContainerMemMB <= 0 {
		c.ContainerMemMB = 1024
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.Behavior == nil {
		c.Behavior = wf.DefaultOutcome
	}
	if c.TimeoutSlack <= 0 {
		c.TimeoutSlack = 3
	}
}

// Report summarizes a finished workflow execution.
type Report struct {
	WorkflowName string
	Scheduler    string

	Start, End  float64
	MakespanSec float64
	Succeeded   bool
	Err         error

	Results    []*wf.TaskResult
	Outputs    []string
	Retries    int
	Containers int64 // worker containers allocated for this workflow

	// Fault-tolerance accounting.
	Recovered   int // tasks reconstructed from provenance by Resume
	TimedOut    int // attempts that hit their deadline
	Speculative int // speculative duplicate attempts launched

	// Memoized counts tasks completed by memo-table splice instead of
	// execution.
	Memoized int
}

// taskState is everything the AM knows about one submitted task, from
// submit to its one accepted result.
type taskState struct {
	t          *wf.Task
	attempts   []*attempt // live attempts
	nextIdx    int        // index of the task's next attempt
	speculated bool       // a duplicate attempt was launched
	completed  bool       // a result was accepted
	queued     bool       // handed to the scheduler and not selected since
	retries    int
	excluded   []string   // nodes the task failed on; retries avoid them
	span       obs.SpanID // open task span; 0 once ended or when tracing is off
	memoKey    string     // memo key derived at submit; "" when there is none
}

// attempt is one container execution of a task. A task has one live attempt
// normally, two while a speculative duplicate races the original.
type attempt struct {
	ts  *taskState
	c   *yarn.Container
	res *wf.TaskResult
	idx int // zero-based attempt index, unique per task

	job   *sim.Job   // compute phase, cancellable
	timer *sim.Event // pending deadline
	span  obs.SpanID // attempt span, 0 when tracing is off

	canceled bool // killed (timeout kill or superseded by a sibling)
	lost     bool // hosting node died
	done     bool // outcome already processed
}

// dead reports whether the attempt's async callbacks should stop.
func (a *attempt) dead(am *AM) bool {
	return a.canceled || a.lost || a.done || am.finished
}

// AM is one Hi-WAY application master instance.
type AM struct {
	env    Env
	cfg    Config
	driver wf.Driver
	sched  scheduler.Scheduler
	app    *yarn.Application

	tasks      []*taskState // tasks[id-1] is the task's state, from submit on
	live       int          // live attempts across all tasks
	results    []*wf.TaskResult
	containers int64
	retriesSum int

	recovered   int
	timedOut    int
	speculative int

	// memoization state (see memo.go)
	memoIDs        map[string]string // produced path → canonical identity
	memoized       int               // tasks spliced from the memo table
	pendingSplices int               // hits scheduled but not yet spliced

	start    float64
	finished bool
	killed   bool
	report   *Report
	// static: the driver's tasks are the nodes of a DAG, which validated
	// each of them when it was built; submit validates only the tasks of
	// an iterative driver, made as the run goes.
	static bool

	// observability (all handles nil when Env.Obs is unset — every call
	// below degrades to a nil-receiver no-op)
	tr         *obs.Tracer
	wfSpan     obs.SpanID
	attemptsC  *obs.Counter
	completedC *obs.Counter
	failuresC  *obs.Counter
	timeoutsC  *obs.Counter
	specC      *obs.Counter
	specWinC   *obs.Counter
	specLossC  *obs.Counter
	recoveredC *obs.Counter
	retriesC   *obs.Counter
}

// newAM builds the AM, submits its application, parses the workflow, and
// plans static schedules — the plumbing shared by Launch and Resume. It
// returns the initially ready tasks.
func newAM(env Env, driver wf.Driver, sched scheduler.Scheduler, cfg Config) (*AM, []*wf.Task, error) {
	am := &AM{
		env:     env,
		cfg:     cfg,
		driver:  driver,
		sched:   sched,
		memoIDs: make(map[string]string),
	}
	am.tr = env.Obs.T()
	m := env.Obs.M()
	am.attemptsC = m.Counter("hiway_core_attempts_total", "task attempts launched, incl. retries and speculation")
	am.completedC = m.Counter("hiway_core_tasks_completed_total", "tasks with an accepted successful result")
	am.failuresC = m.Counter("hiway_core_attempt_failures_total", "attempts that ended in failure")
	am.timeoutsC = m.Counter("hiway_core_attempt_timeouts_total", "attempts that hit their deadline")
	am.specC = m.Counter("hiway_core_speculative_launches_total", "speculative duplicate attempts launched")
	am.specWinC = m.Counter("hiway_core_speculation_wins_total", "speculated tasks won by the duplicate attempt")
	am.specLossC = m.Counter("hiway_core_speculation_losses_total", "speculated tasks won by the original attempt")
	am.recoveredC = m.Counter("hiway_core_recovered_tasks_total", "tasks reconstructed from provenance by Resume")
	am.retriesC = m.Counter("hiway_core_retries_total", "task retries after failed attempts")
	if cfg.Health != nil {
		if ha, ok := sched.(scheduler.HealthAware); ok {
			if nh, ok := cfg.Health.(scheduler.NodeHealth); ok {
				ha.SetNodeHealth(nh)
			}
		}
	}
	app, err := env.RM.SubmitApplicationFor(cfg.Tenant, cfg.AMNode)
	if err != nil {
		return nil, nil, fmt.Errorf("core: submitting AM: %w", err)
	}
	if am.cfg.WorkflowID == "" {
		// Task IDs count from 1 in every run, so what tells this run's
		// provenance from another's on the same RM is the application ID.
		am.cfg.WorkflowID = fmt.Sprintf("hiway-%s-%d", driver.Name(), app.ID)
	}
	am.app = app
	am.start = env.Cluster.Engine.Now()
	am.wfSpan = am.tr.Begin("workflow", am.cfg.WorkflowID, "workflow", 0)

	// A frontend's errors name their language and workflow already.
	ready, err := driver.Parse()
	if err != nil {
		app.Finish()
		return nil, nil, err
	}
	if static, ok := driver.(wf.StaticDriver); ok {
		am.static = static.Graph() != nil
	}
	if planner, ok := sched.(scheduler.StaticPlanner); ok {
		static, ok := driver.(wf.StaticDriver)
		if !ok {
			app.Finish()
			return nil, nil, fmt.Errorf("core: static policy %q cannot run iterative %s workflows (§3.4)", sched.Name(), driver.Name())
		}
		if err := planner.Plan(static.Graph(), am.plannableNodes()); err != nil {
			app.Finish()
			return nil, nil, fmt.Errorf("core: planning: %w", err)
		}
	}
	return am, ready, nil
}

// Launch submits a new AM for the driver's workflow and begins execution.
// The caller advances the simulation engine; once it quiesces (or the
// workflow finishes) the report is available via Report.
func Launch(env Env, driver wf.Driver, sched scheduler.Scheduler, cfg Config) (*AM, error) {
	cfg.setDefaults()
	am, ready, err := newAM(env, driver, sched, cfg)
	if err != nil {
		return nil, err
	}
	am.provWorkflowStart()
	if len(ready) == 0 && driver.Done() {
		// Degenerate workflow with no work (e.g. mapping over nil).
		am.finish(nil)
		return am, nil
	}
	if len(ready) == 0 {
		am.finish(fmt.Errorf("core: workflow %s has no initially ready tasks", driver.Name()))
		return am, nil
	}
	for _, t := range ready {
		am.submit(t)
	}
	return am, nil
}

// Run launches the workflow and drives the engine until it quiesces,
// returning the final report. It is the synchronous convenience wrapper
// around Launch for callers running one workflow at a time.
func Run(env Env, driver wf.Driver, sched scheduler.Scheduler, cfg Config) (*Report, error) {
	am, err := Launch(env, driver, sched, cfg)
	if err != nil {
		return nil, err
	}
	env.Cluster.Engine.Run()
	return am.Report()
}

// Resume continues a workflow whose AM died mid-run. Completed tasks are
// reconstructed from the provenance store — matched by task signature plus
// input and output paths against the freshly parsed workflow, accepted only if every
// recorded output is still readable in HDFS — and fed back to the driver
// as if they had just finished, so only lost work re-executes. This is the
// operational form of the paper's re-executable traces (§3.5): provenance
// is the recovery substrate, not just a log.
//
// cfg.WorkflowID must be the crashed run's ID, and env must be the same
// substrate (the cluster and HDFS survive an AM crash; only the AM state
// is lost).
func Resume(env Env, driver wf.Driver, sched scheduler.Scheduler, cfg Config, store provenance.Store) (*AM, error) {
	cfg.setDefaults()
	if cfg.WorkflowID == "" {
		return nil, fmt.Errorf("core: Resume needs the crashed run's WorkflowID")
	}
	events, err := store.Events()
	if err != nil {
		return nil, fmt.Errorf("core: reading provenance for resume: %w", err)
	}
	// Successful recorded attempts of this workflow, keyed by signature +
	// input + output paths. Task IDs follow the order a driver discovers its
	// tasks, which a resumed incarnation need not repeat; structure
	// identifies the task.
	recorded := make(map[string][]provenance.Event)
	for _, ev := range events {
		if ev.Type == provenance.TaskEnd && ev.WorkflowID == cfg.WorkflowID && ev.ExitCode == 0 && ev.Error == "" {
			key := recoveryKeyFromEvent(ev)
			recorded[key] = append(recorded[key], ev)
		}
	}

	am, ready, err := newAM(env, driver, sched, cfg)
	if err != nil {
		return nil, err
	}

	// Recover the frontier transitively: a recovered task may unlock
	// successors that are themselves recoverable.
	var torun []*wf.Task
	frontier := ready
	for len(frontier) > 0 {
		var next []*wf.Task
		for _, t := range frontier {
			key := recoveryKey(t.Name, t.Inputs, t.DeclaredPaths())
			evs := recorded[key]
			if len(evs) == 0 || !am.outputsIntact(evs[0]) {
				torun = append(torun, t)
				continue
			}
			ev := evs[0]
			recorded[key] = evs[1:]
			res := synthesizeResult(t, ev)
			am.recovered++
			nts, err := driver.OnTaskComplete(res)
			if err != nil {
				am.finish(err)
				return am, nil
			}
			next = append(next, nts...)
		}
		frontier = next
	}

	am.recoveredC.Add(int64(am.recovered))
	if env.Prov != nil {
		_ = env.Prov.RecordWorkflowResume(cfg.WorkflowID, driver.Name(), env.Cluster.Engine.Now(), am.recovered)
		// Resume is a durability boundary like Kill: the resume marker must
		// be on storage before new attempts start appending.
		_ = env.Prov.Flush()
	}
	if driver.Done() {
		am.finish(nil)
		return am, nil
	}
	if len(torun) == 0 {
		am.finish(fmt.Errorf("core: resume of %s recovered %d tasks but found no runnable work", driver.Name(), am.recovered))
		return am, nil
	}
	for _, t := range torun {
		am.submit(t)
	}
	return am, nil
}

// recoveryKey identifies a task structurally across AM incarnations. Both
// inputs and declared outputs participate: two tasks may share a signature
// and consume the same files yet produce different artifacts (fan-out), and
// matching on inputs alone would let one steal the other's recorded
// completion, marking a task done whose outputs were never materialized.
// Every string and both lists are prefixed with their length, so no choice
// of paths makes two tasks share a key.
func recoveryKey(signature string, inputs, outputs []string) string {
	key := appendLenPrefixed(nil, signature)
	for _, paths := range [][]string{inputs, outputs} {
		sorted := append([]string(nil), paths...)
		sort.Strings(sorted)
		key = binary.AppendUvarint(key, uint64(len(sorted)))
		for _, p := range sorted {
			key = appendLenPrefixed(key, p)
		}
	}
	return string(key)
}

// appendLenPrefixed appends s behind its length.
func appendLenPrefixed(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func recoveryKeyFromEvent(ev provenance.Event) string {
	ins := make([]string, 0, len(ev.Inputs))
	for _, in := range ev.Inputs {
		ins = append(ins, in.Path)
	}
	outs := make([]string, 0, len(ev.Outputs))
	for _, out := range ev.Outputs {
		outs = append(outs, out.Path)
	}
	return recoveryKey(ev.Signature, ins, outs)
}

// outputsIntact verifies every output the recorded attempt produced is
// still fully readable in HDFS (a datanode loss may have destroyed blocks
// since the run; such tasks must re-execute).
func (am *AM) outputsIntact(ev provenance.Event) bool {
	for _, out := range ev.Outputs {
		if !am.env.FS.Readable(out.Path) {
			return false
		}
	}
	return true
}

// synthesizeResult rebuilds the TaskResult a recorded attempt would have
// produced, bound to the freshly parsed task object.
func synthesizeResult(t *wf.Task, ev provenance.Event) *wf.TaskResult {
	res := &wf.TaskResult{
		Task:        t,
		Node:        ev.Node,
		Start:       ev.Timestamp - ev.DurationSec,
		End:         ev.Timestamp,
		StageInSec:  ev.StageInSec,
		ExecSec:     ev.ExecSec,
		StageOutSec: ev.StageOutSec,
		Attempt:     ev.Attempt,
		Outputs:     make(map[string][]wf.FileInfo),
	}
	for _, out := range ev.Outputs {
		param := out.Param
		if param == "" {
			param = "out"
		}
		res.Outputs[param] = append(res.Outputs[param], wf.FileInfo{Path: out.Path, SizeMB: out.SizeMB})
	}
	return res
}

// Report returns the execution report, and the run's error if it failed. A
// killed AM has no report. One the engine left unfinished stalled (it
// quiesced with work outstanding — a deadlock): Report finishes it with the
// stall error, so its record ends, like a failed run's, with a workflow-end.
func (am *AM) Report() (*Report, error) {
	if am.report == nil {
		if am.killed {
			return nil, fmt.Errorf("core: AM for workflow %s was killed", am.driver.Name())
		}
		// finish releases the live attempts: count them first.
		am.finish(fmt.Errorf("core: workflow %s stalled: %d attempts running, %d queued, %d requests pending, driver done=%v",
			am.driver.Name(), am.live, am.sched.Queued(), am.app.PendingRequests(), am.driver.Done()))
	}
	if am.report.Err != nil {
		return am.report, am.report.Err
	}
	return am.report, nil
}

// Finished reports whether the workflow has terminated (either way).
func (am *AM) Finished() bool { return am.finished }

// CompletedTasks returns the number of successfully completed tasks so far
// (load models and monitors poll it during execution).
func (am *AM) CompletedTasks() int { return len(am.results) }

// Kill terminates the AM abruptly — the simulated equivalent of the AM
// process dying mid-run. Live attempts stop, every container (workers and
// AM) is released, and deliberately no workflow-end provenance is written:
// the trace is left exactly as a crash leaves it, which is what Resume
// recovers from.
func (am *AM) Kill() {
	if am.finished {
		return
	}
	am.finished = true
	am.killed = true
	am.tr.Instant("fault", "am-killed", "workflow")
	am.releaseLive()
	// Task-end provenance is committed at each task boundary in the real
	// system, so it survives an AM crash; flushing the buffered events here
	// models exactly that durability. No workflow-end event is written.
	if am.env.Prov != nil {
		_ = am.env.Prov.Flush()
	}
	am.app.Finish()
}

// plannableNodes lists nodes that can host at least one worker container
// right now — the view a static planner gets.
func (am *AM) plannableNodes() []scheduler.NodeInfo {
	var out []scheduler.NodeInfo
	for _, id := range am.env.RM.LiveNodes() {
		cores, mem := am.env.RM.FreeCapacity(id)
		if cores >= am.cfg.ContainerVCores && mem >= am.cfg.ContainerMemMB {
			out = append(out, scheduler.NodeInfo{ID: id})
		}
	}
	return out
}

// containerResource is the one worker-container size every task shares
// (the paper's mode: all containers have the same configuration).
func (am *AM) containerResource() yarn.Resource {
	return yarn.Resource{VCores: am.cfg.ContainerVCores, MemMB: am.cfg.ContainerMemMB}
}

// submit registers a ready task with the scheduler and requests a container.
func (am *AM) submit(t *wf.Task) {
	if am.finished {
		return
	}
	if !am.static {
		if err := t.Validate(); err != nil {
			am.finish(err)
			return
		}
	}
	for int64(len(am.tasks)) < t.ID {
		am.tasks = append(am.tasks, nil)
	}
	ts := am.tasks[t.ID-1]
	if ts == nil {
		ts = &taskState{t: t}
		am.tasks[t.ID-1] = ts
	}
	if am.tr.Enabled() && ts.span == 0 {
		ts.span = am.tr.BeginAsync("task", t.Name, "tasks", am.wfSpan)
	}
	if am.cfg.Audit != nil {
		am.cfg.Audit.OnTaskSubmitted(am.env.Cluster.Engine.Now(), t)
	}
	if am.tryMemoHit(ts) {
		return
	}
	am.enqueue(ts)
}

// enqueue hands a task to the scheduler, unless it is queued there already,
// and requests a container for it.
func (am *AM) enqueue(ts *taskState) {
	if !ts.queued {
		ts.queued = true
		am.sched.OnTaskReady(ts.t)
	}
	am.requestContainer(ts)
}

// hintAvoiding picks the live node with the most free cores that is not in
// the exclusion set — the destination hint for retried tasks.
func (am *AM) hintAvoiding(excl []string) string {
	best, bestCores := "", -1
	for _, id := range am.env.RM.LiveNodes() {
		if slices.Contains(excl, id) {
			continue
		}
		cores, _ := am.env.RM.FreeCapacity(id)
		if cores > bestCores {
			best, bestCores = id, cores
		}
	}
	return best
}

// hostsLeft reports whether some live node outside excl could ever host a
// worker container: one whose capacity, less the AM's own container when it
// runs there, fits it. Without one, an excluded task would wait forever.
func (am *AM) hostsLeft(excl []string) bool {
	res := am.containerResource()
	amc := am.app.AMContainer
	for _, id := range am.env.RM.LiveNodes() {
		if slices.Contains(excl, id) {
			continue
		}
		cores, mem := am.env.RM.Capacity(id)
		if amc != nil && amc.NodeID == id {
			cores -= amc.Resource.VCores
			mem -= amc.Resource.MemMB
		}
		if cores >= res.VCores && mem >= res.MemMB {
			return true
		}
	}
	return false
}

// retryTarget picks the live node to re-pin a task onto: not excluded,
// preferring one where the task's container currently fits — the AM node,
// for instance, may never have room for a worker container, and a strict
// request pinned there would wait forever.
func (am *AM) retryTarget(excl []string) string {
	res := am.containerResource()
	// Capacity our own live attempts hold per node: it will be released
	// when they finish, so a node busy with our work is still viable —
	// unlike the AM node, whose deficit is permanent.
	heldCores := map[string]int{}
	heldMem := map[string]int{}
	for _, ts := range am.tasks {
		if ts == nil {
			continue
		}
		for _, a := range ts.attempts {
			heldCores[a.c.NodeID] += a.c.Resource.VCores
			heldMem[a.c.NodeID] += a.c.Resource.MemMB
		}
	}
	best, bestCores := "", -1
	roomy, fallback := "", ""
	for _, id := range am.env.RM.LiveNodes() {
		if slices.Contains(excl, id) {
			continue
		}
		if fallback == "" {
			fallback = id
		}
		cores, mem := am.env.RM.FreeCapacity(id)
		if cores >= res.VCores && mem >= res.MemMB && cores > bestCores {
			best, bestCores = id, cores
		}
		if roomy == "" && cores+heldCores[id] >= res.VCores && mem+heldMem[id] >= res.MemMB {
			roomy = id
		}
	}
	switch {
	case best != "":
		return best
	case roomy != "":
		return roomy
	default:
		return fallback
	}
}

// requestContainer asks YARN for a container to run t on: a node hint the
// policy pins it to (strictly for static plans), or one steering a task with
// failed attempts away from its excluded nodes. A strict request whose
// pinned node is gone, whether before or after the request, is withdrawn
// by the RM, re-pinned and requested again.
func (am *AM) requestContainer(ts *taskState) {
	hint, strict := am.sched.Placement(ts.t)
	if len(ts.excluded) > 0 && !strict {
		if h := am.hintAvoiding(ts.excluded); h != "" {
			hint = h
		}
	}
	req := yarn.Request{Resource: am.containerResource(), NodeHint: hint}
	if strict {
		req.OnUnplaceable = func(yarn.Request) { am.onUnplaceable(ts) }
	}
	am.app.Request(req, am.onAnonymousContainer)
}

// onUnplaceable re-routes a task whose strict request the RM withdrew
// because its pinned node is gone: the static plan moves it to a live node
// and the request is reissued there.
func (am *AM) onUnplaceable(ts *taskState) {
	if am.finished || ts.completed {
		return
	}
	if len(am.env.RM.LiveNodes()) == 0 {
		am.finish(fmt.Errorf("core: no live nodes left to place %s", ts.t))
		return
	}
	am.repin(ts)
	am.requestContainer(ts)
}

// repin moves a static plan's pin for ts to the node retryTarget picks.
// When no node outside the task's exclusions could host it, the
// exclusions reset first (the node set may be partly dead). Dynamic
// policies pin nothing, so for them only the reset applies.
func (am *AM) repin(ts *taskState) {
	if !am.hostsLeft(ts.excluded) {
		ts.excluded = nil
	}
	if ra, ok := am.sched.(scheduler.Reassigner); ok {
		if target := am.retryTarget(ts.excluded); target != "" {
			ra.Reassign(ts.t, target)
		}
	}
}

// onAnonymousContainer matches an allocated container to a queued task via
// the scheduling policy. A task that already failed on the container's node
// is passed over and goes back into the queue once the container has found
// its task: it waits for a node it may use (the paper's
// retry-on-different-node). A nil selection with work still queued means
// the policy declined this node (adaptive-greedy on a known-slow machine,
// any policy on a blacklisted one) or every queued task is excluded from
// it: release the container and re-request one steered elsewhere — away
// from the first passed-over task's excluded nodes when there was one.
func (am *AM) onAnonymousContainer(c *yarn.Container) {
	var ts *taskState
	var passed []*taskState
	for ts == nil {
		task := am.sched.Select(c.NodeID)
		if task == nil {
			break
		}
		cand := am.tasks[task.ID-1]
		cand.queued = false
		if slices.Contains(cand.excluded, c.NodeID) {
			passed = append(passed, cand)
		} else {
			ts = cand
		}
	}
	for _, p := range passed {
		p.queued = true
		am.sched.OnTaskReady(p.t)
	}
	if ts == nil {
		am.app.Release(c)
		if !am.finished && am.sched.Queued() > am.app.PendingRequests() {
			avoid := []string{c.NodeID}
			if len(passed) > 0 {
				avoid = passed[0].excluded
			}
			hint := am.hintAvoiding(avoid)
			am.app.Request(yarn.Request{Resource: am.containerResource(), NodeHint: hint}, am.onAnonymousContainer)
		}
		return
	}
	am.launchAttempt(ts, c, false)
}

// attemptDeadline computes the per-attempt deadline for a task: the
// configured floor, raised to p95 × slack once provenance has runtime
// history for the signature. Zero means no deadline.
func (am *AM) attemptDeadline(t *wf.Task) float64 {
	if am.cfg.TaskTimeoutFloorSec <= 0 {
		return 0
	}
	d := am.cfg.TaskTimeoutFloorSec
	if am.env.Prov != nil {
		if p95, ok := am.env.Prov.RuntimeP95(t.Name); ok {
			if s := p95 * am.cfg.TimeoutSlack; s > d {
				d = s
			}
		}
	}
	return d
}

// fate consults the fault injector for this attempt.
func (am *AM) fate(t *wf.Task, node string, attempt int) chaos.Fate {
	if am.cfg.Chaos != nil {
		return am.cfg.Chaos.TaskFate(t, node, attempt)
	}
	return chaos.FateRun
}

// launchAttempt drives one container lifecycle for the task.
func (am *AM) launchAttempt(ts *taskState, c *yarn.Container, speculative bool) {
	if am.finished || ts.completed {
		am.app.Release(c)
		return
	}
	t := ts.t
	node := am.env.Cluster.Node(c.NodeID)
	if node == nil {
		am.finish(fmt.Errorf("core: container on unknown node %s", c.NodeID))
		return
	}
	eng := am.env.Cluster.Engine
	idx := ts.nextIdx
	ts.nextIdx++
	a := &attempt{
		ts: ts, c: c, idx: idx,
		res: &wf.TaskResult{Task: t, Node: c.NodeID, Start: eng.Now(), Attempt: idx, Speculative: speculative},
	}
	ts.attempts = append(ts.attempts, a)
	am.live++
	am.containers++
	am.attemptsC.Inc()
	if am.tr.Enabled() {
		a.span = am.tr.Begin("attempt", t.Name, c.NodeID, ts.span)
		am.tr.ArgInt(a.span, "attempt", int64(idx))
		if speculative {
			am.tr.Arg(a.span, "speculative", "true")
		}
	}
	am.provTaskStart(t, c.NodeID, idx)
	if am.cfg.Audit != nil {
		am.cfg.Audit.OnAttemptStart(eng.Now(), t, c.NodeID, idx)
	}

	if d := am.attemptDeadline(t); d > 0 {
		a.timer = eng.Schedule(d, func() { am.onAttemptTimeout(a) })
	}

	c.OnLost = func() {
		if a.dead(am) {
			return
		}
		a.lost = true
		a.res.End = eng.Now()
		a.res.ExitCode = -1
		a.res.Error = fmt.Sprintf("node %s lost during execution", c.NodeID)
		am.onAttemptFinished(a, false)
	}

	stageInStart := eng.Now()
	siSpan := am.tr.Begin("phase", "stage-in", c.NodeID, a.span)
	am.env.FS.Read(c.NodeID, t.Inputs, func(err error) {
		am.tr.End(siSpan)
		if a.dead(am) {
			am.app.Release(c)
			return
		}
		if err != nil {
			a.res.End = eng.Now()
			a.res.ExitCode = 1
			a.res.Error = fmt.Sprintf("stage-in: %v", err)
			am.onAttemptFinished(a, false)
			return
		}
		a.res.StageInSec = eng.Now() - stageInStart

		threads := t.Threads
		if threads > c.Resource.VCores {
			threads = c.Resource.VCores
		}
		fate := am.fate(t, c.NodeID, idx)
		work := t.CPUSeconds
		if fate == chaos.FateHang {
			// A wedged process: computes forever, never calls back. Only
			// the attempt deadline (kill or speculation) recovers from it.
			work = math.Inf(1)
		}
		execStart := eng.Now()
		exSpan := am.tr.Begin("phase", "exec", c.NodeID, a.span)
		a.job = am.env.Cluster.Compute(node, work, threads, func() {
			am.tr.End(exSpan)
			if a.dead(am) {
				am.app.Release(c)
				return
			}
			a.res.ExecSec = eng.Now() - execStart

			if fate == chaos.FateCrash {
				a.res.End = eng.Now()
				a.res.ExitCode = 1
				a.res.Error = "injected fault"
				am.onAttemptFinished(a, false)
				return
			}
			outcome := am.cfg.Behavior(t)
			a.res.ExitCode = outcome.ExitCode
			a.res.Error = outcome.Error
			a.res.Outputs = outcome.Outputs
			if !a.res.Succeeded() {
				a.res.End = eng.Now()
				am.onAttemptFinished(a, false)
				return
			}

			// Stage out every produced file to HDFS.
			stageOutStart := eng.Now()
			files := a.res.OutputFiles()
			pending := len(files)
			if pending == 0 {
				a.res.End = eng.Now()
				am.onAttemptFinished(a, true)
				return
			}
			soSpan := am.tr.Begin("phase", "stage-out", c.NodeID, a.span)
			var writeErr error
			for _, fi := range files {
				am.env.FS.Write(c.NodeID, fi.Path, fi.SizeMB, func(err error) {
					if err != nil && writeErr == nil {
						writeErr = err
					}
					pending--
					if pending > 0 {
						return
					}
					am.tr.End(soSpan)
					if a.dead(am) {
						am.app.Release(c)
						return
					}
					a.res.StageOutSec = eng.Now() - stageOutStart
					a.res.End = eng.Now()
					if writeErr != nil {
						a.res.ExitCode = 1
						a.res.Error = fmt.Sprintf("stage-out: %v", writeErr)
						am.onAttemptFinished(a, false)
						return
					}
					am.onAttemptFinished(a, true)
				})
			}
		})
	})
}

// onAttemptTimeout fires when an attempt outlives its deadline. With
// speculation available the attempt keeps running and a duplicate races it
// from another node; otherwise (or once the task has already speculated)
// every live attempt of the task is killed and the task retries.
func (am *AM) onAttemptTimeout(a *attempt) {
	a.timer = nil
	ts := a.ts
	if a.dead(am) || ts.completed {
		return
	}
	am.timedOut++
	am.timeoutsC.Inc()
	am.tr.Instant("fault", "attempt-timeout", a.res.Node)
	t := ts.t
	if am.cfg.Health != nil {
		am.cfg.Health.ReportFailure(a.res.Node)
	}
	if am.cfg.Speculate && !ts.speculated {
		ts.speculated = true
		am.speculative++
		am.specC.Inc()
		avoid := append([]string{a.res.Node}, ts.excluded...)
		req := yarn.Request{Resource: am.containerResource(), NodeHint: am.hintAvoiding(avoid)}
		am.app.Request(req, func(c *yarn.Container) { am.launchAttempt(ts, c, true) })
		// Re-arm this attempt's deadline: if the duplicate dies too (or
		// never gets a container), the second firing takes the
		// kill-and-retry path instead of leaving a hung attempt behind.
		if d := am.attemptDeadline(t); d > 0 {
			a.timer = am.env.Cluster.Engine.Schedule(d, func() { am.onAttemptTimeout(a) })
		}
		return
	}
	// Kill-and-retry: cancel any sibling attempts first (a sibling is
	// either itself past deadline or about to be superseded by the retry),
	// then fail this attempt through the normal path.
	for _, sib := range slices.Clone(ts.attempts) {
		if sib != a {
			am.cancelAttempt(sib, "killed after a sibling attempt timed out")
		}
	}
	if a.job != nil {
		a.job.Cancel()
	}
	now := am.env.Cluster.Engine.Now()
	a.res.End = now
	a.res.ExitCode = 124
	a.res.Error = fmt.Sprintf("attempt timed out after %.1fs on %s", now-a.res.Start, a.res.Node)
	am.onAttemptFinished(a, false)
}

// cancelAttempt withdraws a live attempt without routing it through retry:
// its compute job stops contending, its container returns to YARN, and a
// task-end event records why it was killed.
func (am *AM) cancelAttempt(a *attempt, reason string) {
	if a.done || a.canceled {
		return
	}
	a.canceled = true
	a.done = true
	eng := am.env.Cluster.Engine
	if a.timer != nil {
		eng.Cancel(a.timer)
		a.timer = nil
	}
	if a.job != nil {
		a.job.Cancel()
	}
	am.removeAttempt(a)
	a.res.End = eng.Now()
	a.res.ExitCode = 137
	a.res.Error = reason
	am.tr.Arg(a.span, "canceled", "true")
	am.tr.End(a.span)
	am.provTaskEnd(a.res)
	if am.cfg.Audit != nil {
		am.cfg.Audit.OnAttemptEnd(eng.Now(), a.ts.t, a.res.Node, a.idx, a.res.ExitCode, false)
	}
	am.app.Release(a.c)
}

// removeAttempt drops the attempt from the task's live list.
func (am *AM) removeAttempt(a *attempt) {
	if i := slices.Index(a.ts.attempts, a); i >= 0 {
		a.ts.attempts = slices.Delete(a.ts.attempts, i, i+1)
		am.live--
	}
}

// onAttemptFinished handles completion (ok) or failure of one attempt.
func (am *AM) onAttemptFinished(a *attempt, ok bool) {
	if a.done {
		return
	}
	a.done = true
	if a.timer != nil {
		am.env.Cluster.Engine.Cancel(a.timer)
		a.timer = nil
	}
	am.removeAttempt(a)
	am.app.Release(a.c)
	am.tr.ArgInt(a.span, "exit", int64(a.res.ExitCode))
	am.tr.End(a.span)
	am.provTaskEnd(a.res)
	ts := a.ts
	if am.cfg.Audit != nil {
		accepted := ok && !am.finished && !ts.completed
		am.cfg.Audit.OnAttemptEnd(am.env.Cluster.Engine.Now(), ts.t, a.res.Node, a.idx, a.res.ExitCode, accepted)
	}
	if am.finished {
		return
	}
	t := ts.t

	if ok {
		if ts.completed {
			return
		}
		if ts.speculated {
			if a.res.Speculative {
				am.specWinC.Inc()
			} else {
				am.specLossC.Inc()
			}
		}
		if am.cfg.Health != nil {
			am.cfg.Health.ReportSuccess(a.res.Node)
		}
		am.memoCommit(ts, a.res)
		am.accept(ts, a.res)
		return
	}

	// Failure (crash, stage-in/out error, node loss, or timeout kill).
	am.failuresC.Inc()
	if am.cfg.Health != nil {
		am.cfg.Health.ReportFailure(a.res.Node)
	}
	if len(ts.attempts) > 0 {
		// A sibling attempt is still racing; it decides the task's fate.
		return
	}
	ts.retries++
	am.retriesSum++
	am.retriesC.Inc()
	if ts.retries > am.cfg.MaxRetries {
		am.results = append(am.results, a.res)
		am.finish(fmt.Errorf("core: %s failed %d times (last on %s): %s",
			t, ts.retries, a.res.Node, a.res.Error))
		return
	}
	// Exclude the failing node and retry elsewhere (§3.1).
	if !slices.Contains(ts.excluded, a.res.Node) {
		ts.excluded = append(ts.excluded, a.res.Node)
	}
	am.repin(ts)
	am.enqueue(ts)
}

// accept completes a task with its one accepted result, an attempt's or a
// memo splice's: the task span ends, a speculative duplicate still racing
// is canceled, and the driver consumes the result. What the driver returns
// is submitted; then the workflow either finishes or is checked for a
// stall.
func (am *AM) accept(ts *taskState, res *wf.TaskResult) {
	ts.completed = true
	am.completedC.Inc()
	if am.cfg.Audit != nil {
		am.cfg.Audit.OnTaskCompleted(am.env.Cluster.Engine.Now(), ts.t, res.Node)
	}
	am.tr.End(ts.span)
	ts.span = 0
	// The loser of a speculative race is canceled and its container
	// released (no retry — the task is done).
	for _, sib := range slices.Clone(ts.attempts) {
		am.cancelAttempt(sib, "superseded: a duplicate attempt finished first")
	}
	am.results = append(am.results, res)
	next, err := am.driver.OnTaskComplete(res)
	if err != nil {
		am.finish(err)
		return
	}
	for _, nt := range next {
		am.submit(nt)
	}
	if am.driver.Done() {
		am.finish(nil)
		return
	}
	am.checkStalled()
}

// checkStalled fails the workflow if nothing is running, queued, requested,
// or awaiting a memo splice while the driver still expects progress.
func (am *AM) checkStalled() {
	if am.live == 0 && am.sched.Queued() == 0 && am.app.PendingRequests() == 0 && am.pendingSplices == 0 {
		am.finish(fmt.Errorf("core: workflow %s stalled with %d tasks finished", am.driver.Name(), len(am.results)))
	}
}

// finish terminates the workflow and assembles the report.
func (am *AM) finish(err error) {
	if am.finished {
		return
	}
	am.finished = true
	eng := am.env.Cluster.Engine
	am.report = &Report{
		WorkflowName: am.driver.Name(),
		Scheduler:    am.sched.Name(),
		Start:        am.start,
		End:          eng.Now(),
		MakespanSec:  eng.Now() - am.start,
		Succeeded:    err == nil,
		Err:          err,
		Results:      am.results,
		Retries:      am.retriesSum,
		Containers:   am.containers,
		Recovered:    am.recovered,
		TimedOut:     am.timedOut,
		Speculative:  am.speculative,
		Memoized:     am.memoized,
	}
	if err == nil {
		am.report.Outputs = am.driver.Outputs()
	}
	// Release any attempts still live (e.g. a failure elsewhere aborted
	// the workflow while attempts were in flight).
	am.releaseLive()
	if err == nil {
		am.tr.Arg(am.wfSpan, "succeeded", "true")
	} else {
		am.tr.Arg(am.wfSpan, "succeeded", "false")
	}
	am.tr.End(am.wfSpan)
	am.provWorkflowEnd(err == nil)
	if am.cfg.Audit != nil {
		am.cfg.Audit.OnWorkflowEnd(eng.Now(), err == nil)
	}
	// Workflow completion is a durability boundary: hand buffered
	// provenance to the store before the AM goes away.
	if am.env.Prov != nil {
		_ = am.env.Prov.Flush()
	}
	am.app.Finish()
	if am.cfg.OnTerminal != nil {
		am.cfg.OnTerminal(am.report)
	}
}

// releaseLive stops every live attempt and returns its container to YARN,
// in task-ID order: the one release loop of Kill and finish.
func (am *AM) releaseLive() {
	eng := am.env.Cluster.Engine
	for _, ts := range am.tasks {
		if ts == nil {
			continue
		}
		for _, a := range ts.attempts {
			a.canceled = true
			a.done = true
			if a.timer != nil {
				eng.Cancel(a.timer)
				a.timer = nil
			}
			if a.job != nil {
				a.job.Cancel()
			}
			am.app.Release(a.c)
		}
		ts.attempts = nil
	}
	am.live = 0
}

func (am *AM) provWorkflowStart() {
	if am.env.Prov == nil {
		return
	}
	_ = am.env.Prov.RecordWorkflowStart(am.cfg.WorkflowID, am.driver.Name(), am.env.Cluster.Engine.Now())
}

func (am *AM) provWorkflowEnd(ok bool) {
	if am.env.Prov == nil {
		return
	}
	now := am.env.Cluster.Engine.Now()
	_ = am.env.Prov.RecordWorkflowEnd(am.cfg.WorkflowID, am.driver.Name(), now, now-am.start, ok)
}

func (am *AM) provTaskStart(t *wf.Task, node string, attempt int) {
	if am.env.Prov == nil {
		return
	}
	_ = am.env.Prov.RecordTaskStart(am.cfg.WorkflowID, am.driver.Name(), t, node, attempt, am.env.Cluster.Engine.Now())
}

func (am *AM) provTaskEnd(res *wf.TaskResult) {
	if am.env.Prov == nil {
		return
	}
	_ = am.env.Prov.Record(am.taskEndEvent(res))
}

// taskEndEvent builds res's task-end event, each input sized as HDFS knows
// it (0 if it does not).
func (am *AM) taskEndEvent(res *wf.TaskResult) provenance.Event {
	ev := provenance.TaskEndEvent(am.cfg.WorkflowID, am.driver.Name(), res)
	for i := range ev.Inputs {
		if f, ok := am.env.FS.Stat(ev.Inputs[i].Path); ok {
			ev.Inputs[i].SizeMB = f.SizeMB
		}
	}
	return ev
}
