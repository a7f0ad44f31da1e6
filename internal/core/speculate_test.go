package core

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"hiway/internal/chaos"
	"hiway/internal/cluster"
	"hiway/internal/hdfs"
	"hiway/internal/lang/cwl"
	"hiway/internal/provenance"
	"hiway/internal/scheduler"
	"hiway/internal/sim"
	"hiway/internal/wf"
	"hiway/internal/yarn"
)

// exclusionAudit fails the test when a task's regular (non-speculative)
// attempt starts on a node the task is excluded from.
type exclusionAudit struct {
	t        *testing.T
	am       *AM
	attempts int
}

func (x *exclusionAudit) OnTaskSubmitted(float64, *wf.Task) {}
func (x *exclusionAudit) OnAttemptStart(_ float64, task *wf.Task, node string, _ int) {
	x.attempts++
	ts := x.am.tasks[task.ID-1]
	if a := ts.attempts[len(ts.attempts)-1]; !a.res.Speculative && slices.Contains(ts.excluded, node) {
		x.t.Errorf("%s started attempt %d on %s, a node it is excluded from (%v)", task, a.idx, node, ts.excluded)
	}
}
func (x *exclusionAudit) OnAttemptEnd(float64, *wf.Task, string, int, int, bool) {}
func (x *exclusionAudit) OnTaskCompleted(float64, *wf.Task, string)              {}
func (x *exclusionAudit) OnWorkflowEnd(float64, bool)                            {}

// TestExcludedTaskWaitsForAnotherNode runs `hiway sim -w examples/snv.cwl`
// with its eight read parts under crashrate=0.1, a 45 s attempt timeout and
// speculation, on chaos seeds 1–5. The alignments outlive their deadline, so
// every task collects excluded nodes while the data-aware policy keeps
// offering each one the node holding its reads — the node it failed on. A
// task may not take a container there; it must wait for a node it may use,
// so no regular attempt starts on an excluded node, and each run ends (here
// with a task that failed too often) within a bounded number of engine steps
// instead of re-queueing forever.
func TestExcludedTaskWaitsForAnotherNode(t *testing.T) {
	src, err := os.ReadFile("../../examples/snv.cwl")
	if err != nil {
		t.Fatal(err)
	}
	const stepBudget = 20_000
	for seed := int64(1); seed <= 5; seed++ {
		eng := sim.NewEngine()
		specs := make([]cluster.NodeSpec, 8)
		for i := range specs {
			specs[i] = cluster.M3Large()
		}
		cl, err := cluster.New(eng, cluster.Config{SwitchMBps: 2000}, specs)
		if err != nil {
			t.Fatal(err)
		}
		fs := hdfs.New(cl, hdfs.Config{}, 1)
		rm := yarn.NewResourceManager(eng, cl, yarn.Config{})
		prov, err := provenance.NewManager(provenance.NewMemStore())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Put("/ref/hg38.idx", 3500, ""); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 8; p++ {
			if _, err := fs.Put(fmt.Sprintf("/reads/sample000/part0%d.fq", p), 1024, ""); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := chaos.Parse("crashrate=0.1", seed)
		if err != nil {
			t.Fatal(err)
		}
		plan.Arm(eng, rm, fs, cl)
		audit := &exclusionAudit{t: t}
		cfg := Config{
			TaskTimeoutFloorSec: 45, TimeoutSlack: 3, Speculate: true,
			Chaos: plan, Health: scheduler.NewNodeHealthTracker(eng.Now), Audit: audit,
		}
		am, err := Launch(Env{Cluster: cl, FS: fs, RM: rm, Prov: prov}, cwl.NewDriver("snv", string(src), cwl.Options{}), scheduler.NewDataAware(fs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		audit.am = am
		for steps := 0; !am.Finished(); steps++ {
			if steps == stepBudget || !eng.Step() {
				t.Fatalf("seed %d: not finished after %d engine steps (t=%.2f s, %d queued, %d requests pending)",
					seed, steps, eng.Now(), am.sched.Queued(), am.app.PendingRequests())
			}
		}
		rep, err := am.Report()
		if err != nil && !strings.Contains(err.Error(), "failed") {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: %d engine steps, t=%.2f s, succeeded=%v, %d attempts, retries %d, speculative %d",
			seed, eng.Processed(), eng.Now(), rep.Succeeded, audit.attempts, rep.Retries, rep.Speculative)
	}
}

// TestExclusionsResetWhenOnlyTheAMNodeIsLeft runs a one-worker chain on two
// nodes whose AM container fills one of them. The work task crashes once on
// the worker node and is excluded from it; the only other live node is the
// AM's, which can never host a worker container, so the task has no node it
// may use. Its exclusions must reset and it must retry on the worker node,
// not wait for the AM's node forever.
func TestExclusionsResetWhenOnlyTheAMNodeIsLeft(t *testing.T) {
	eng := sim.NewEngine()
	cl, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 1000, ExternalPerFlowMBps: 50}, 2, spec())
	if err != nil {
		t.Fatal(err)
	}
	fs := hdfs.New(cl, hdfs.Config{BlockSizeMB: 64, Replication: 2}, 42)
	rm := yarn.NewResourceManager(eng, cl, yarn.Config{AMResource: yarn.Resource{VCores: spec().VCores, MemMB: spec().MemMB}})
	prov, err := provenance.NewManager(provenance.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Put("/in/seed", 1, ""); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Chaos: crashWhen(func(task *wf.Task, _ string, attempt int) bool {
		return task.Name == "work" && attempt == 0
	})}
	am, err := Launch(Env{Cluster: cl, FS: fs, RM: rm, Prov: prov}, chainDriver(t, 1), scheduler.NewFCFS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for steps := 0; !am.Finished(); steps++ {
		if steps == 10_000 || !eng.Step() {
			t.Fatalf("not finished after %d engine steps (t=%.2f s, %d queued, %d requests pending)",
				steps, eng.Now(), am.sched.Queued(), am.app.PendingRequests())
		}
	}
	rep, err := am.Report()
	if err != nil || !rep.Succeeded || rep.Retries != 1 {
		t.Fatalf("report %+v, err %v; want success after one retry", rep, err)
	}
}

// readyTwice hands every initially ready task to the AM twice.
type readyTwice struct{ wf.Driver }

func (d readyTwice) Parse() ([]*wf.Task, error) {
	ready, err := d.Driver.Parse()
	return append(ready, ready...), err
}

// TestTaskIsQueuedOnce pins that a task handed to the AM while it is already
// queued is not queued again: the three-task chain takes three attempts,
// however often its first task is submitted.
func TestTaskIsQueuedOnce(t *testing.T) {
	env := newEnv(t, 3, spec(), 1000)
	env.FS.Put("/in/seed", 1, "")
	audit := &exclusionAudit{t: t}
	am, err := Launch(env.Env, readyTwice{chainDriver(t, 1)}, scheduler.NewFCFS(), Config{Audit: audit})
	if err != nil {
		t.Fatal(err)
	}
	audit.am = am
	for !am.Finished() && env.eng.Step() {
	}
	if rep, err := am.Report(); err != nil || !rep.Succeeded || audit.attempts != 3 {
		t.Fatalf("report %+v, err %v, %d attempts; want success in 3", rep, err, audit.attempts)
	}
}
