package e2e

import (
	"fmt"
	"maps"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hiway/internal/chaos"
	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/lang/cuneiform"
	"hiway/internal/lang/galaxy"
	"hiway/internal/lang/trace"
	"hiway/internal/provdb"
	"hiway/internal/provenance"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/sim"
	"hiway/internal/wf"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

// newEnv materializes a small homogeneous cluster with the given
// provenance store.
func newEnv(t *testing.T, nodes int, store provenance.Store, inputs []workloads.Input) (*sim.Engine, core.Env) {
	t.Helper()
	r := &recipes.Recipe{
		Name:       "e2e",
		Groups:     []recipes.NodeGroup{{Count: nodes, Spec: cluster.M3Large()}},
		SwitchMBps: 2000,
		HDFS:       hdfs.Config{BlockSizeMB: 512, Replication: 2},
		YARN:       yarn.Config{},
		Seed:       5,
		Inputs:     inputs,
	}
	eng, env, err := r.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if store != nil {
		mgr, err := provenance.NewManager(store)
		if err != nil {
			t.Fatal(err)
		}
		env.Prov = mgr
	}
	return eng, env
}

// replayOf wraps a recorded run's provenance as a trace workflow — what
// `hiway sim -w trace.jsonl` builds from the same events.
func replayOf(t *testing.T, name string, store provenance.Store) wf.StaticDriver {
	t.Helper()
	events, err := store.Events()
	if err != nil {
		t.Fatal(err)
	}
	d := &trace.Driver{}
	d.WFName = name
	d.Build = func() ([]*wf.Task, []string, []wf.Edge, error) { return trace.FromEvents(events) }
	return d
}

// signatureCounts summarizes a report by task name.
func signatureCounts(results []*wf.TaskResult) map[string]int {
	out := map[string]int{}
	for _, r := range results {
		out[r.Task.Name]++
	}
	return out
}

// TestTraceRoundTrip runs a workflow, exports its provenance trace, replays
// the trace as a workflow on a fresh cluster (§3.5: trace files are the
// fourth supported language), and checks that the replay reproduces the
// same task graph and final outputs.
func TestTraceRoundTrip(t *testing.T) {
	driver, inputs := workloads.SNV(workloads.SNVConfig{
		Samples: 2, FilesPerSample: 4, FileSizeMB: 64,
		AlignCPUSeconds: 20, SortCPUSeconds: 10, CallCPUSeconds: 30, AnnotateCPUSeconds: 10,
		RefLocal: true,
	})
	store := provenance.NewMemStore()
	_, env := newEnv(t, 4, store, inputs)
	rep, err := core.Run(env, driver, scheduler.NewDataAware(env.FS), core.Config{ContainerVCores: 2, ContainerMemMB: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded {
		t.Fatal(rep.Err)
	}

	// Replay on a different (smaller) cluster — "albeit not necessarily on
	// the same compute nodes". The input data must be present, as §3.6
	// requires for trace replay.
	replayDriver := replayOf(t, "replay", store)
	_, env2 := newEnv(t, 2, nil, inputs)
	rep2, err := core.Run(env2, replayDriver, scheduler.NewFCFS(), core.Config{ContainerVCores: 2, ContainerMemMB: 4096})
	if err != nil {
		t.Fatal(err)
	}
	got, want := signatureCounts(rep2.Results), signatureCounts(rep.Results)
	if len(got) != len(want) {
		t.Fatalf("signatures: got %v want %v", got, want)
	}
	for sig, n := range want {
		if got[sig] != n {
			t.Fatalf("signature %s: got %d want %d", sig, got[sig], n)
		}
	}
	sort.Strings(rep.Outputs)
	sort.Strings(rep2.Outputs)
	if fmt.Sprint(rep.Outputs) != fmt.Sprint(rep2.Outputs) {
		t.Fatalf("outputs differ:\n%v\n%v", rep.Outputs, rep2.Outputs)
	}
	for _, out := range rep2.Outputs {
		if !env2.FS.Exists(out) {
			t.Fatalf("replayed output %s missing from HDFS", out)
		}
	}
}

// TestSchedulerMatrixSameResult runs the Montage DAX workflow under every
// scheduling policy; all must complete with identical outputs (policies
// change performance, never semantics).
func TestSchedulerMatrixSameResult(t *testing.T) {
	policies := []string{
		scheduler.PolicyFCFS, scheduler.PolicyDataAware,
		scheduler.PolicyRoundRobin, scheduler.PolicyHEFT, scheduler.PolicyAdaptiveGreedy,
	}
	var outputs []string
	var makespans []float64
	for _, policy := range policies {
		driver, inputs := workloads.Montage(workloads.MontageConfig{Degree: 0.25})
		_, env := newEnv(t, 5, nil, inputs)
		sched, err := scheduler.New(policy, scheduler.Deps{Locality: env.FS, Estimator: env.Prov})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Run(env, driver, sched, core.Config{ContainerVCores: 1, ContainerMemMB: 2048})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if len(rep.Results) != 39 {
			t.Fatalf("%s: %d tasks", policy, len(rep.Results))
		}
		sort.Strings(rep.Outputs)
		outputs = append(outputs, strings.Join(rep.Outputs, ","))
		makespans = append(makespans, rep.MakespanSec)
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("policy %s produced different outputs: %s vs %s", policies[i], outputs[i], outputs[0])
		}
	}
	_ = makespans
}

// TestGalaxyWorkflowOnSimulatedCluster drives a Galaxy export through the
// whole stack, with interactive input binding and a tool profile registry.
func TestGalaxyWorkflowOnSimulatedCluster(t *testing.T) {
	const export = `{
	  "name": "rnaseq-mini",
	  "steps": {
	    "0": {"id": 0, "type": "data_input", "label": "reads", "outputs": []},
	    "1": {"id": 1, "type": "tool", "tool_id": "tophat2",
	          "input_connections": {"input": {"id": 0, "output_name": "output"}},
	          "outputs": [{"name": "hits", "type": "bam"}]},
	    "2": {"id": 2, "type": "tool", "tool_id": "cufflinks",
	          "input_connections": {"input": {"id": 1, "output_name": "hits"}},
	          "outputs": [{"name": "assembly", "type": "gtf"}]}
	  }
	}`
	driver := galaxy.NewDriver("rnaseq-mini", export, galaxy.Options{
		Inputs: map[string]string{"reads": "/data/reads.fastq"},
		Profiles: map[string]wf.Profile{
			"tophat2":   {CPUSeconds: 100, Threads: 2, MemMB: 4096, OutputSizeMB: 200},
			"cufflinks": {CPUSeconds: 50, Threads: 2, MemMB: 4096, OutputSizeMB: 20},
		},
	})
	_, env := newEnv(t, 3, nil, []workloads.Input{{Path: "/data/reads.fastq", SizeMB: 150}})
	rep, err := core.Run(env, driver, scheduler.NewDataAware(env.FS), core.Config{ContainerVCores: 2, ContainerMemMB: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 || !rep.Succeeded {
		t.Fatalf("report = %+v", rep)
	}
	if !env.FS.Exists(rep.Outputs[0]) {
		t.Fatal("galaxy output missing")
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

// TestIterativeWorkflowSurvivesFaults combines the two hard features:
// an iterative Cuneiform workflow and injected task failures; the AM must
// retry on other nodes and the loop must still converge.
func TestIterativeWorkflowSurvivesFaults(t *testing.T) {
	driver := cuneiform.NewDriver("shrink", `
deftask step( out : cur ) @cpu 5 in bash *{ refine }*
deftask check( <flag> : cur ) @cpu 1 in bash *{ converged? }*
defun loop( cur ) {
  if check( cur: cur ) then loop( cur: step( cur: cur ) ) else cur end
}
loop( cur: "/data/init" );`)
	_, env := newEnv(t, 3, nil, []workloads.Input{{Path: "/data/init", SizeMB: 4}})
	checks := 0
	failed := map[int64]bool{}
	cfg := core.Config{
		ContainerVCores: 1, ContainerMemMB: 2048,
		Behavior: func(task *wf.Task) wf.Outcome {
			out := wf.DefaultOutcome(task)
			if task.Name == "check" {
				out.Outputs = maps.Clone(out.Outputs)
				checks++
				if checks <= 2 {
					out.Outputs["flag"] = []wf.FileInfo{{Path: fmt.Sprintf("/data/flag%d", task.ID), SizeMB: 0.01}}
				} else {
					out.Outputs["flag"] = nil
				}
			}
			return out
		},
		Chaos: crashWhen(func(task *wf.Task, node string, attempt int) bool {
			// Every step task fails its first attempt.
			if task.Name == "step" && attempt == 0 && !failed[task.ID] {
				failed[task.ID] = true
				return true
			}
			return false
		}),
	}
	rep, err := core.Run(env, driver, scheduler.NewFCFS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded {
		t.Fatal(rep.Err)
	}
	if rep.Retries != 2 { // two step tasks, one retry each
		t.Fatalf("retries = %d, want 2", rep.Retries)
	}
	counts := signatureCounts(rep.Results)
	if counts["check"] != 3 || counts["step"] != 2 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestProvDBBackedRun stores a real run's provenance in the embedded
// database, reopens it, and replays the trace from the database.
func TestProvDBBackedRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.db")
	db, err := provdb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	store := provenance.NewDBStore(db)

	driver, inputs := workloads.Montage(workloads.MontageConfig{Degree: 0.25})
	_, env := newEnv(t, 4, store, inputs)
	rep, err := core.Run(env, driver, scheduler.NewDataAware(env.FS), core.Config{ContainerVCores: 1, ContainerMemMB: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the database and replay the recorded run.
	db2, err := provdb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	store2 := provenance.NewDBStore(db2)
	defer store2.Close()
	replay := replayOf(t, "montage-replay", store2)
	_, env2 := newEnv(t, 4, nil, inputs)
	rep2, err := core.Run(env2, replay, scheduler.NewFCFS(), core.Config{ContainerVCores: 1, ContainerMemMB: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Results) != len(rep.Results) {
		t.Fatalf("replayed %d of %d tasks", len(rep2.Results), len(rep.Results))
	}
}

// TestNodeCrashMidWorkflow kills a worker mid-run; replication and retries
// must carry the workflow to completion (§3.1).
func TestNodeCrashMidWorkflow(t *testing.T) {
	driver, inputs := workloads.SNV(workloads.SNVConfig{
		Samples: 2, FilesPerSample: 4, FileSizeMB: 64,
		AlignCPUSeconds: 60, SortCPUSeconds: 30, CallCPUSeconds: 60, AnnotateCPUSeconds: 20,
		RefLocal: true,
	})
	eng, env := newEnv(t, 5, nil, inputs)
	am, err := core.Launch(env, driver, scheduler.NewDataAware(env.FS), core.Config{ContainerVCores: 2, ContainerMemMB: 4096, AMNode: "node-00"})
	if err != nil {
		t.Fatal(err)
	}
	// Kill a worker that is not the AM's node once execution is underway.
	eng.RunUntil(10)
	victim := "node-01"
	env.RM.KillNode(victim)
	env.FS.KillNode(victim)
	eng.Run()
	rep, err := am.Report()
	if err != nil {
		t.Fatalf("workflow did not survive the crash: %v", err)
	}
	if !rep.Succeeded {
		t.Fatal(rep.Err)
	}
	for _, out := range rep.Outputs {
		if !env.FS.Readable(out) {
			t.Fatalf("output %s not readable after crash", out)
		}
	}
}

// TestManyConcurrentWorkflows stresses the one-AM-per-workflow design with
// eight simultaneous applications sharing one cluster.
func TestManyConcurrentWorkflows(t *testing.T) {
	_, env := newEnv(t, 6, nil, nil)
	eng := env.Cluster.Engine
	var ams []*core.AM
	for i := 0; i < 8; i++ {
		prefix := fmt.Sprintf("/wf%d", i)
		var ids wf.IDSeq // every workflow numbers its tasks from 1
		var tasks []*wf.Task
		for j := 0; j < 4; j++ {
			task := newTask(&ids, "work", nil, []wf.FileInfo{{Path: fmt.Sprintf("%s/out%d", prefix, j), SizeMB: 2}})
			task.CPUSeconds = 15
			tasks = append(tasks, task)
		}
		sb := &wf.StaticBase{WFName: fmt.Sprintf("wf%d", i)}
		sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) { return tasks, nil, nil, nil }
		am, err := core.Launch(env, sb, scheduler.NewFCFS(), core.Config{ContainerVCores: 1, ContainerMemMB: 1024})
		if err != nil {
			t.Fatal(err)
		}
		ams = append(ams, am)
	}
	eng.Run()
	for i, am := range ams {
		rep, err := am.Report()
		if err != nil {
			t.Fatalf("workflow %d: %v", i, err)
		}
		if !rep.Succeeded || len(rep.Results) != 4 {
			t.Fatalf("workflow %d: %+v", i, rep)
		}
	}
}

// newTask builds a one-output task numbered by the run's ID sequence.
func newTask(ids *wf.IDSeq, name string, inputs []string, outputs []wf.FileInfo) *wf.Task {
	return &wf.Task{ID: ids.Next(), Name: name, Inputs: inputs,
		OutputParams: []string{"out"}, Declared: map[string][]wf.FileInfo{"out": outputs}, Threads: 1}
}
