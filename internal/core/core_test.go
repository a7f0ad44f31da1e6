package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"hiway/internal/chaos"
	"hiway/internal/cluster"
	"hiway/internal/hdfs"
	"hiway/internal/lang/cuneiform"
	"hiway/internal/lang/dax"
	"hiway/internal/provenance"
	"hiway/internal/scheduler"
	"hiway/internal/sim"
	"hiway/internal/wf"
	"hiway/internal/yarn"
)

type testEnv struct {
	Env
	eng *sim.Engine
}

func newEnv(t *testing.T, nodes int, spec cluster.NodeSpec, switchMBps float64) *testEnv {
	t.Helper()
	eng := sim.NewEngine()
	c, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: switchMBps, ExternalPerFlowMBps: 50}, nodes, spec)
	if err != nil {
		t.Fatal(err)
	}
	fs := hdfs.New(c, hdfs.Config{BlockSizeMB: 64, Replication: 2}, 42)
	rm := yarn.NewResourceManager(eng, c, yarn.Config{})
	prov, err := provenance.NewManager(provenance.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{Env: Env{Cluster: c, FS: fs, RM: rm, Prov: prov}, eng: eng}
}

func spec() cluster.NodeSpec {
	return cluster.NodeSpec{VCores: 4, MemMB: 8192, CPUFactor: 1, DiskMBps: 200, NetMBps: 200}
}

// newTask builds a one-output task numbered by the run's ID sequence.
func newTask(ids *wf.IDSeq, name string, inputs []string, outputs []wf.FileInfo) *wf.Task {
	return &wf.Task{ID: ids.Next(), Name: name, Inputs: inputs,
		OutputParams: []string{"out"}, Declared: map[string][]wf.FileInfo{"out": outputs}, Threads: 1}
}

// chainDriver returns a static driver: prep → work ×n → merge.
func chainDriver(t *testing.T, n int) wf.StaticDriver {
	t.Helper()
	var ids wf.IDSeq
	prep := newTask(&ids, "prep", []string{"/in/seed"}, []wf.FileInfo{{Path: "/tmp/split", SizeMB: 10}})
	prep.CPUSeconds = 5
	tasks := []*wf.Task{prep}
	var mergeIn []string
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("/tmp/part%d", i)
		w := newTask(&ids, "work", []string{"/tmp/split"}, []wf.FileInfo{{Path: out, SizeMB: 5}})
		w.CPUSeconds = 20
		tasks = append(tasks, w)
		mergeIn = append(mergeIn, out)
	}
	merge := newTask(&ids, "merge", mergeIn, []wf.FileInfo{{Path: "/tmp/result", SizeMB: 1}})
	merge.CPUSeconds = 2
	tasks = append(tasks, merge)
	sb := &wf.StaticBase{WFName: "chain"}
	sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
		return tasks, []string{"/in/seed"}, nil, nil
	}
	return sb
}

func TestRunSimpleChain(t *testing.T) {
	env := newEnv(t, 3, spec(), 1000)
	env.FS.Put("/in/seed", 20, "")
	rep, err := Run(env.Env, chainDriver(t, 4), scheduler.NewFCFS(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded || rep.MakespanSec <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Results) != 6 {
		t.Fatalf("results = %d, want 6", len(rep.Results))
	}
	if len(rep.Outputs) != 1 || rep.Outputs[0] != "/tmp/result" {
		t.Fatalf("outputs = %v", rep.Outputs)
	}
	if !env.FS.Exists("/tmp/result") {
		t.Fatal("final output not in HDFS")
	}
	// Provenance: 1 wf-start + 6 task-start + 6 task-end + 1 wf-end.
	events, _ := env.Prov.Store().Events()
	if len(events) != 14 {
		t.Fatalf("provenance events = %d, want 14", len(events))
	}
	if d, ok := env.Prov.LastRuntime("work", rep.Results[1].Node); !ok || d <= 0 {
		t.Fatalf("runtime not indexed: %g %v", d, ok)
	}
	if rep.Containers != 6 {
		t.Fatalf("containers = %d", rep.Containers)
	}
}

func TestParallelismSpeedsUp(t *testing.T) {
	// 8 independent 40-core-second single-thread tasks.
	mk := func() wf.StaticDriver {
		var ids wf.IDSeq
		var tasks []*wf.Task
		for i := 0; i < 8; i++ {
			w := newTask(&ids, "work", nil, []wf.FileInfo{{Path: fmt.Sprintf("/o/%d", i), SizeMB: 0.1}})
			w.CPUSeconds = 40
			tasks = append(tasks, w)
		}
		sb := &wf.StaticBase{WFName: "par"}
		sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) { return tasks, nil, nil, nil }
		return sb
	}
	env1 := newEnv(t, 1, cluster.NodeSpec{VCores: 2, MemMB: 8192, CPUFactor: 1, DiskMBps: 200, NetMBps: 200}, 1000)
	rep1, err := Run(env1.Env, mk(), scheduler.NewFCFS(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	env4 := newEnv(t, 4, cluster.NodeSpec{VCores: 2, MemMB: 8192, CPUFactor: 1, DiskMBps: 200, NetMBps: 200}, 1000)
	rep4, err := Run(env4.Env, mk(), scheduler.NewFCFS(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep4.MakespanSec >= rep1.MakespanSec/2.5 {
		t.Fatalf("4 nodes (%.1fs) should be much faster than 1 node (%.1fs)", rep4.MakespanSec, rep1.MakespanSec)
	}
}

func TestDataAwareBeatsFCFSUnderTightNetwork(t *testing.T) {
	// Large inputs pinned to distinct nodes, tiny switch: picking the
	// local task saves most transfer time. The policy factory receives
	// the run's FS so the data-aware oracle sees the right metadata.
	run := func(mkPolicy func(*hdfs.FS) scheduler.Scheduler) float64 {
		env := newEnv(t, 4, spec(), 40) // constrained switch
		env.FS = hdfs.New(env.Cluster, hdfs.Config{BlockSizeMB: 10000, Replication: 1}, 7)
		var ids wf.IDSeq
		var tasks []*wf.Task
		var inputs []string
		for i := 0; i < 4; i++ {
			in := fmt.Sprintf("/in/big%d", i)
			env.FS.Put(in, 2000, fmt.Sprintf("node-0%d", i))
			w := newTask(&ids, "align", []string{in}, []wf.FileInfo{{Path: fmt.Sprintf("/o/%d", i), SizeMB: 1}})
			w.CPUSeconds = 10
			tasks = append(tasks, w)
			inputs = append(inputs, in)
		}
		sb := &wf.StaticBase{WFName: "locality"}
		sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
			return tasks, inputs, nil, nil
		}
		rep, err := Run(env.Env, sb, mkPolicy(env.FS), Config{ContainerVCores: 2})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MakespanSec
	}
	daTime := run(func(fs *hdfs.FS) scheduler.Scheduler { return scheduler.NewDataAware(fs) })
	fcfsTime := run(func(*hdfs.FS) scheduler.Scheduler { return scheduler.NewFCFS() })
	if daTime >= fcfsTime {
		t.Fatalf("data-aware (%.1fs) should beat FCFS (%.1fs) when inputs are node-local", daTime, fcfsTime)
	}
	// With perfect locality, no remote transfer: ~2000/200(disk)+cpu.
	if daTime > 60 {
		t.Fatalf("data-aware makespan %.1fs, expected near-local I/O time", daTime)
	}
}

// crashWhen is a chaos.Injector that crashes the attempts it returns true for.
type crashWhen func(t *wf.Task, node string, attempt int) bool

func (f crashWhen) TaskFate(t *wf.Task, node string, attempt int) chaos.Fate {
	if f(t, node, attempt) {
		return chaos.FateCrash
	}
	return chaos.FateRun
}

func TestRetryOnDifferentNodeAfterFault(t *testing.T) {
	env := newEnv(t, 3, spec(), 1000)
	env.FS.Put("/in/seed", 1, "")
	var failedNode string
	cfg := Config{
		Chaos: crashWhen(func(task *wf.Task, node string, attempt int) bool {
			if task.Name == "work" && attempt == 0 {
				failedNode = node
				return true
			}
			return false
		}),
	}
	rep, err := Run(env.Env, chainDriver(t, 1), scheduler.NewFCFS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != 1 {
		t.Fatalf("retries = %d, want 1", rep.Retries)
	}
	var workResult *wf.TaskResult
	for _, r := range rep.Results {
		if r.Task.Name == "work" {
			workResult = r
		}
	}
	if workResult == nil || workResult.Node == failedNode {
		t.Fatalf("retry ran on the failing node %s again", failedNode)
	}
}

func TestRetriesExhaustedFailsWorkflow(t *testing.T) {
	env := newEnv(t, 2, spec(), 1000)
	env.FS.Put("/in/seed", 1, "")
	cfg := Config{
		MaxRetries: 2,
		Chaos:      crashWhen(func(task *wf.Task, node string, attempt int) bool { return task.Name == "work" }),
	}
	rep, err := Run(env.Env, chainDriver(t, 1), scheduler.NewFCFS(), cfg)
	if err == nil || rep.Succeeded {
		t.Fatalf("workflow should fail after retries: %+v", rep)
	}
	if !strings.Contains(err.Error(), "failed") {
		t.Fatalf("err = %v", err)
	}
	if rep.Retries != 3 { // initial + 2 retries, all failed
		t.Fatalf("retries = %d", rep.Retries)
	}
}

func TestNodeDeathTriggersRetry(t *testing.T) {
	env := newEnv(t, 3, spec(), 1000)
	env.FS.Put("/in/seed", 1, "")
	am, err := Launch(env.Env, chainDriver(t, 2), scheduler.NewFCFS(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Let execution begin, then kill a node hosting a worker container.
	env.eng.RunUntil(6) // prep (5 cpu-s) done or running; workers starting
	var victim string
	for _, id := range env.RM.LiveNodes() {
		cores, _ := env.RM.FreeCapacity(id)
		full := env.Cluster.Node(id).Spec.VCores
		if cores < full && id != am.app.AMContainer.NodeID {
			victim = id
			break
		}
	}
	if victim == "" {
		t.Skip("no busy non-AM node at t=6; timing drifted")
	}
	killTime := env.eng.Now()
	env.RM.KillNode(victim)
	env.FS.KillNode(victim)
	env.eng.Run()
	rep, err := am.Report()
	if err != nil {
		t.Fatalf("workflow should survive a node death: %v", err)
	}
	if !rep.Succeeded {
		t.Fatalf("report = %+v", rep)
	}
	// Nothing may complete on the victim after it died; earlier
	// completions there are legitimate.
	for _, r := range rep.Results {
		if r.Node == victim && r.End > killTime {
			t.Fatalf("result attributed to dead node %s after the crash", victim)
		}
	}
	if rep.Retries == 0 {
		t.Fatal("the lost container should count as a retry")
	}
}

// TestResumeRecoversOnlyTheRecordedTask kills a run after one of two
// same-signature tasks completed and resumes it. The tasks' paths are chosen
// so that joining inputs and outputs with separator bytes gives both the same
// recovery key: the unfinished task, first in the ready set, would then be
// recovered from the finished one's record, its own output never written.
func TestResumeRecoversOnlyTheRecordedTask(t *testing.T) {
	driver := func() wf.Driver {
		var ids wf.IDSeq
		long := newTask(&ids, "clone", []string{"/d/a"}, []wf.FileInfo{{Path: "/w/b\x01/w/c", SizeMB: 1}})
		long.CPUSeconds = 120
		short := newTask(&ids, "clone", []string{"/d/a\x01/w/b"}, []wf.FileInfo{{Path: "/w/c", SizeMB: 1}})
		short.CPUSeconds = 5
		return &wf.StaticBase{WFName: "collide", Build: func() ([]*wf.Task, []string, []wf.Edge, error) {
			return []*wf.Task{long, short}, []string{"/d/a", "/d/a\x01/w/b"}, nil, nil
		}}
	}
	env := newEnv(t, 3, spec(), 1000)
	env.FS.Put("/d/a", 1, "")
	env.FS.Put("/d/a\x01/w/b", 1, "")
	cfg := Config{WorkflowID: "collide-run"}
	am, err := Launch(env.Env, driver(), scheduler.NewFCFS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ts := 1.0; am.CompletedTasks() < 1 && !am.Finished(); ts++ {
		env.eng.RunUntil(ts)
	}
	if am.Finished() || am.CompletedTasks() != 1 {
		t.Fatalf("want exactly the short task done at the kill, have %d (finished %v)", am.CompletedTasks(), am.Finished())
	}
	am.Kill()

	am2, err := Resume(env.Env, driver(), scheduler.NewFCFS(), cfg, env.Prov.Store())
	if err != nil {
		t.Fatal(err)
	}
	env.eng.Run()
	rep, err := am2.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 1 || len(rep.Results) != 1 {
		t.Fatalf("recovered %d and executed %d tasks, want 1 and 1", rep.Recovered, len(rep.Results))
	}
	if got := rep.Results[0].Task.DeclaredPaths(); got[0] != "/w/b\x01/w/c" {
		t.Fatalf("the resumed run executed the task writing %q; the unfinished one writes /w/b\\x01/w/c", got[0])
	}
	if !env.FS.Readable("/w/b\x01/w/c") {
		t.Fatal("the unfinished task's output was never written")
	}
}

const miniDAX = `<adag name="mini">
  <job id="A" name="first" runtime="10">
    <uses file="/in/x" link="input"/>
    <uses file="/mid/y" link="output" sizeMB="5"/>
  </job>
  <job id="B" name="second" runtime="10">
    <uses file="/mid/y" link="input"/>
    <uses file="/out/z" link="output" sizeMB="1"/>
  </job>
</adag>`

func TestStaticHEFTWithDAXDriver(t *testing.T) {
	env := newEnv(t, 3, spec(), 1000)
	env.FS.Put("/in/x", 10, "")
	h := scheduler.NewHEFT(env.Prov)
	rep, err := Run(env.Env, dax.NewDriver("mini", miniDAX), h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded || len(rep.Results) != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestStaticPolicyRejectsIterativeLanguage(t *testing.T) {
	env := newEnv(t, 2, spec(), 1000)
	d := cuneiform.NewDriver("iter", `
deftask a( out : inp ) in bash *{ x }*
a( inp: "seed" );`)
	_, err := Launch(env.Env, d, scheduler.NewHEFT(env.Prov), Config{})
	if err == nil || !strings.Contains(err.Error(), "iterative") {
		t.Fatalf("static policy must reject Cuneiform: %v", err)
	}
}

func TestIterativeCuneiformEndToEnd(t *testing.T) {
	env := newEnv(t, 2, spec(), 1000)
	env.FS.Put("init", 1, "")
	d := cuneiform.NewDriver("kmeans", `
deftask step( out : cur ) @cpu 5 in bash *{ refine }*
deftask check( <flag> : cur ) @cpu 1 in bash *{ converged? }*
defun loop( cur ) {
  if check( cur: cur ) then loop( cur: step( cur: cur ) ) else cur end
}
loop( cur: "init" );`)
	checks := 0
	cfg := Config{Behavior: func(task *wf.Task) wf.Outcome {
		out := wf.DefaultOutcome(task)
		if task.Name == "check" {
			out.Outputs = maps.Clone(out.Outputs)
			checks++
			if checks <= 3 {
				out.Outputs["flag"] = []wf.FileInfo{{Path: fmt.Sprintf("flag-%d", task.ID), SizeMB: 0.01}}
			} else {
				out.Outputs["flag"] = nil
			}
		}
		return out
	}}
	rep, err := Run(env.Env, d, scheduler.NewDataAware(env.FS), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded {
		t.Fatalf("report err = %v", rep.Err)
	}
	// 4 checks + 3 steps.
	if len(rep.Results) != 7 {
		t.Fatalf("results = %d, want 7", len(rep.Results))
	}
	if len(rep.Outputs) != 1 || !strings.Contains(rep.Outputs[0], "step_") {
		t.Fatalf("outputs = %v", rep.Outputs)
	}
	if !env.FS.Exists(rep.Outputs[0]) {
		t.Fatal("iterative result not in HDFS")
	}
}

func TestTwoWorkflowsConcurrently(t *testing.T) {
	// One AM per workflow (§3.1): two independent workflows share the
	// cluster and both finish.
	env := newEnv(t, 4, spec(), 1000)
	env.FS.Put("/in/seed", 5, "")
	am1, err := Launch(env.Env, chainDriver(t, 3), scheduler.NewFCFS(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	d2 := chainDriver(t, 3)
	// Second driver writes to distinct paths? chainDriver reuses paths —
	// rebuild with a prefix instead.
	_ = d2
	var ids wf.IDSeq
	prep := newTask(&ids, "prep2", []string{"/in/seed"}, []wf.FileInfo{{Path: "/w2/split", SizeMB: 10}})
	prep.CPUSeconds = 5
	w := newTask(&ids, "work2", []string{"/w2/split"}, []wf.FileInfo{{Path: "/w2/out", SizeMB: 1}})
	w.CPUSeconds = 20
	sb := &wf.StaticBase{WFName: "wf2"}
	sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
		return []*wf.Task{prep, w}, []string{"/in/seed"}, nil, nil
	}
	am2, err := Launch(env.Env, sb, scheduler.NewFCFS(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	env.eng.Run()
	r1, err1 := am1.Report()
	r2, err2 := am2.Report()
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v", err1, err2)
	}
	if !r1.Succeeded || !r2.Succeeded {
		t.Fatal("both workflows should succeed")
	}
	// Both runs number their tasks from 1; the default workflow IDs, taken
	// from the application IDs, keep their provenance apart.
	if am1.cfg.WorkflowID == am2.cfg.WorkflowID {
		t.Fatalf("two runs on one RM share workflow ID %q", am1.cfg.WorkflowID)
	}
}

func TestEmptyWorkflowFinishesImmediately(t *testing.T) {
	env := newEnv(t, 2, spec(), 1000)
	d := cuneiform.NewDriver("empty", `
deftask a( out : inp ) in bash *{ x }*
a( inp: nil );`)
	rep, err := Run(env.Env, d, scheduler.NewFCFS(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded || len(rep.Results) != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestMissingInputFailsTask(t *testing.T) {
	env := newEnv(t, 2, spec(), 1000)
	// /in/seed never staged: stage-in fails, retries exhaust, workflow fails.
	rep, err := Run(env.Env, chainDriver(t, 1), scheduler.NewFCFS(), Config{MaxRetries: 1})
	if err == nil || rep.Succeeded {
		t.Fatalf("missing input should fail the workflow: %+v", rep)
	}
	if !strings.Contains(err.Error(), "stage-in") && !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v", err)
	}
}

func TestAdaptiveGreedyDeclinesSlowNodeEndToEnd(t *testing.T) {
	// Two nodes, one crippled by CPU stress. Warm the estimator with
	// observations, then check the adaptive policy routes work away from
	// the slow node by declining containers there.
	// Three clean nodes and one heavily stressed one: with most of the
	// fleet fast, the signature mean stays low and the slow node's
	// estimate crosses the decline threshold.
	eng := sim.NewEngine()
	fast := cluster.M3Large()
	slow := cluster.M3Large()
	slow.CPUHogs = 64
	c, err := cluster.New(eng, cluster.Config{SwitchMBps: 1000},
		[]cluster.NodeSpec{fast, fast, fast, slow})
	if err != nil {
		t.Fatal(err)
	}
	fsys := hdfs.New(c, hdfs.Config{Replication: 1}, 1)
	rm := yarn.NewResourceManager(eng, c, yarn.Config{AMResource: yarn.Resource{VCores: 0, MemMB: 256}})
	prov, _ := provenance.NewManager(provenance.NewMemStore())
	env := Env{Cluster: c, FS: fsys, RM: rm, Prov: prov}

	mkDriver := func(round int) wf.StaticDriver {
		var ids wf.IDSeq
		var tasks []*wf.Task
		for i := 0; i < 6; i++ {
			w := newTask(&ids, "work", nil, []wf.FileInfo{{Path: fmt.Sprintf("/r%d/o%d", round, i), SizeMB: 0.1}})
			w.CPUSeconds = 10
			tasks = append(tasks, w)
		}
		sb := &wf.StaticBase{WFName: fmt.Sprintf("adapt-%d", round)}
		sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) { return tasks, nil, nil, nil }
		return sb
	}
	// Round 0: FCFS to gather observations on both nodes.
	if _, err := Run(env, mkDriver(0), scheduler.NewFCFS(), Config{ContainerVCores: 2, ContainerMemMB: 2048}); err != nil {
		t.Fatal(err)
	}
	if _, ok := prov.LastRuntime("work", "node-03"); !ok {
		t.Skip("slow node received no work in the warmup round")
	}
	// Round 1: adaptive-greedy should keep everything off the slow node.
	rep, err := Run(env, mkDriver(1), scheduler.NewAdaptiveGreedy(prov), Config{ContainerVCores: 2, ContainerMemMB: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if res.Node == "node-03" {
			t.Fatalf("adaptive policy ran %s on the known-slow node", res.Task)
		}
	}
}

func TestAMOnPinnedNode(t *testing.T) {
	env := newEnv(t, 3, spec(), 1000)
	env.FS.Put("/in/seed", 1, "")
	am, err := Launch(env.Env, chainDriver(t, 1), scheduler.NewFCFS(), Config{AMNode: "node-02"})
	if err != nil {
		t.Fatal(err)
	}
	if am.app.AMContainer.NodeID != "node-02" {
		t.Fatalf("AM on %s", am.app.AMContainer.NodeID)
	}
	env.eng.Run()
	if _, err := am.Report(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryExhaustionRecordsEveryAttempt is the regression test for the
// fault-tolerance accounting: a task that fails on every node must fail
// the workflow with a clear error, and provenance must carry a start/end
// pair for every individual failed attempt — distinct IDs, distinct
// attempt indices — so post-mortems can see the whole retry history.
func TestRetryExhaustionRecordsEveryAttempt(t *testing.T) {
	env := newEnv(t, 2, spec(), 1000)
	env.FS.Put("/in/seed", 1, "")
	var lastNode string
	cfg := Config{
		MaxRetries: 2,
		Chaos: crashWhen(func(task *wf.Task, node string, attempt int) bool {
			lastNode = node
			return task.Name == "work"
		}),
	}
	rep, err := Run(env.Env, chainDriver(t, 1), scheduler.NewFCFS(), cfg)
	if err == nil || rep.Succeeded {
		t.Fatalf("workflow should fail: %+v", rep)
	}
	if want := "core: task 2 (work) failed 3 times (last on " + lastNode + "): injected fault"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}

	events, _ := env.Prov.Store().Events()
	starts, ends := 0, 0
	ids := map[string]bool{}
	attempts := map[int]bool{}
	for _, ev := range events {
		if ev.Signature != "work" {
			continue
		}
		switch ev.Type {
		case provenance.TaskStart:
			starts++
		case provenance.TaskEnd:
			ends++
			if ev.ExitCode == 0 {
				t.Fatalf("failed attempt recorded as success: %+v", ev)
			}
			if ev.Error == "" {
				t.Fatalf("failed attempt recorded without error: %+v", ev)
			}
			if ids[ev.ID()] {
				t.Fatalf("duplicate provenance ID %s across attempts", ev.ID())
			}
			ids[ev.ID()] = true
			attempts[ev.Attempt] = true
		}
	}
	if starts != 3 || ends != 3 {
		t.Fatalf("starts=%d ends=%d, want 3/3 (initial + 2 retries)", starts, ends)
	}
	for i := 0; i < 3; i++ {
		if !attempts[i] {
			t.Fatalf("attempt index %d missing from provenance (got %v)", i, attempts)
		}
	}
	// The workflow-end event records the failure.
	last := events[len(events)-1]
	if last.Type != provenance.WorkflowEnd || last.Succeeded {
		t.Fatalf("last event = %+v, want failed workflow-end", last)
	}
}

// TestReportNamesAStall pins the error a report gives when the engine
// quiesces with the workflow unfinished: it counts the live attempts, the
// scheduler queue and the pending container requests, so a deadlock
// explains itself. A hang with timeouts off leaves one attempt running; a
// container no node can hold leaves its task queued and its request
// pending. The stall ends the run: its record closes with one failed
// workflow-end at the quiesce time, and a second Report gives the same error.
func TestReportNamesAStall(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"hung attempt", Config{Chaos: chaos.NewPlan(1).AddRule(chaos.TaskRule{Signature: "prep", Attempt: -1, Fate: chaos.FateHang})},
			"stalled: 1 attempts running, 0 queued, 0 requests pending, driver done=false"},
		{"unplaceable container", Config{ContainerVCores: 64},
			"stalled: 0 attempts running, 1 queued, 1 requests pending, driver done=false"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newEnv(t, 2, spec(), 1000)
			env.FS.Put("/in/seed", 20, "")
			am, err := Launch(env.Env, chainDriver(t, 1), scheduler.NewFCFS(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			env.eng.Run()
			if am.Finished() {
				t.Fatal("the workflow finished; want a stall")
			}
			quiesced := env.eng.Now()
			rep, err := am.Report()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("report error %v, want it to contain %q", err, tc.want)
			}
			if !am.Finished() || rep == nil || rep.Succeeded || rep.End != quiesced {
				t.Fatalf("after the stall: finished %v, report %+v; want a failed report ending at t=%g", am.Finished(), rep, quiesced)
			}
			if _, again := am.Report(); again == nil || again.Error() != err.Error() {
				t.Fatalf("second report error %v, want %v", again, err)
			}
			events, _ := env.Prov.Store().Events()
			var ends []provenance.Event
			for _, ev := range events {
				if ev.Type == provenance.WorkflowEnd {
					ends = append(ends, ev)
				}
			}
			if len(ends) != 1 || ends[0].Succeeded || ends[0].Timestamp != quiesced {
				t.Fatalf("workflow-end events %+v; want one, failed, at t=%g", ends, quiesced)
			}
		})
	}
}

// releaseLog records the order in which the RM sees containers released.
type releaseLog struct{ released []int64 }

func (r *releaseLog) OnContainerAllocated(float64, *yarn.Container) {}
func (r *releaseLog) OnContainerReleased(_ float64, c *yarn.Container, _ bool) {
	r.released = append(r.released, c.ID)
}
func (r *releaseLog) OnContainerLost(float64, *yarn.Container) {}
func (r *releaseLog) OnNodeDead(float64, string)               {}
func (r *releaseLog) OnNodeJoined(float64, string, int, int)   {}
func (r *releaseLog) OnNodeDraining(float64, string)           {}
func (r *releaseLog) OnNodeRemoved(float64, string)            {}

// submitOrder hands the AM a static driver's initially ready tasks in a
// fixed order of its own instead of ID order.
type submitOrder struct {
	*wf.StaticBase
	order []int
}

func (d submitOrder) Parse() ([]*wf.Task, error) {
	ready, err := d.StaticBase.Parse()
	out := make([]*wf.Task, len(d.order))
	for i, k := range d.order {
		out[i] = ready[k]
	}
	return out, err
}

// TestKillReleasesLiveAttemptsInTaskIDOrder submits four independent tasks
// in the order 3, 1, 4, 2, so their containers are allocated in that order,
// and kills the AM while all four run: the workers go back to YARN in task
// ID order, then the AM's own container.
func TestKillReleasesLiveAttemptsInTaskIDOrder(t *testing.T) {
	var ids wf.IDSeq
	var tasks []*wf.Task
	for i := 0; i < 4; i++ {
		task := newTask(&ids, "long", nil, []wf.FileInfo{{Path: fmt.Sprintf("/out/%d", i), SizeMB: 1}})
		task.CPUSeconds = 100
		tasks = append(tasks, task)
	}
	driver := submitOrder{&wf.StaticBase{WFName: "kill-order", Build: func() ([]*wf.Task, []string, []wf.Edge, error) {
		return tasks, nil, nil, nil
	}}, []int{2, 0, 3, 1}}
	env := newEnv(t, 4, spec(), 1000)
	log := &releaseLog{}
	env.RM.SetAudit(log)
	am, err := Launch(env.Env, driver, scheduler.NewFCFS(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	env.eng.RunUntil(5)
	var want, started []int64
	for _, task := range tasks {
		ts := am.tasks[task.ID-1]
		if len(ts.attempts) != 1 {
			t.Fatalf("%s has %d live attempts at the kill, want 1", task, len(ts.attempts))
		}
		want = append(want, ts.attempts[0].c.ID)
	}
	for _, k := range driver.order {
		started = append(started, want[k])
	}
	if !slices.IsSorted(started) || slices.IsSorted(want) {
		t.Fatalf("containers %v by task ID, want them allocated in submission order 3, 1, 4, 2", want)
	}
	am.Kill()
	want = append(want, am.app.AMContainer.ID)
	if !slices.Equal(log.released, want) {
		t.Fatalf("Kill released containers %v, want %v: task-ID order, then the AM", log.released, want)
	}
}
