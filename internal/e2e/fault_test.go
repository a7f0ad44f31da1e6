package e2e

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"hiway/internal/chaos"
	"hiway/internal/core"
	"hiway/internal/provdb"
	"hiway/internal/provenance"
	"hiway/internal/scheduler"
	"hiway/internal/wf"
	"hiway/internal/workloads"
)

func snvWorkload() (wf.Driver, []workloads.Input) {
	return workloads.SNV(workloads.SNVConfig{
		Samples: 2, FilesPerSample: 3, FileSizeMB: 32,
		AlignCPUSeconds: 30, SortCPUSeconds: 15, CallCPUSeconds: 30, AnnotateCPUSeconds: 10,
		RefLocal: true,
	})
}

// TestAMCrashResumeFromProvenance is the acceptance test for AM recovery:
// the AM dies mid-workflow with a durable provdb-backed provenance store;
// a new AM incarnation resumes against the reopened store on the same
// (surviving) cluster. Completed tasks must be reconstructed — not re-run,
// which provenance event counts prove — and the final outputs must match
// an uninterrupted reference run.
func TestAMCrashResumeFromProvenance(t *testing.T) {
	// Reference run: the same workflow without a crash.
	refDriver, inputs := snvWorkload()
	_, refEnv := newEnv(t, 4, nil, inputs)
	refRep, err := core.Run(refEnv, refDriver, scheduler.NewFCFS(), core.Config{ContainerVCores: 2, ContainerMemMB: 4096})
	if err != nil {
		t.Fatal(err)
	}
	totalTasks := len(refRep.Results)

	// Crash run: provenance goes to the embedded database, as a real
	// deployment would survive an AM process death.
	path := filepath.Join(t.TempDir(), "prov.db")
	db, err := provdb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	store := provenance.NewDBStore(db)
	driver1, inputs := snvWorkload()
	eng, env := newEnv(t, 4, store, inputs)
	cfg := core.Config{WorkflowID: "snv-resume", ContainerVCores: 2, ContainerMemMB: 4096}
	am, err := core.Launch(env, driver1, scheduler.NewFCFS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ts := 5.0; am.CompletedTasks() < 2 && !am.Finished(); ts += 5 {
		eng.RunUntil(ts)
	}
	if am.Finished() {
		t.Fatal("workflow finished before the crash could be injected")
	}
	completedAtCrash := am.CompletedTasks()
	am.Kill()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// New AM incarnation: reopen the database; cluster and HDFS survive.
	db2, err := provdb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	store2 := provenance.NewDBStore(db2)
	defer store2.Close()
	mgr, err := provenance.NewManager(store2)
	if err != nil {
		t.Fatal(err)
	}
	env.Prov = mgr
	driver2, _ := snvWorkload()
	am2, err := core.Resume(env, driver2, scheduler.NewFCFS(), cfg, store2)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	rep, err := am2.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded {
		t.Fatal(rep.Err)
	}
	if rep.Recovered != completedAtCrash {
		t.Fatalf("recovered %d tasks, %d had completed at the crash", rep.Recovered, completedAtCrash)
	}
	if rep.Recovered+len(rep.Results) != totalTasks {
		t.Fatalf("recovered %d + executed %d != %d total tasks", rep.Recovered, len(rep.Results), totalTasks)
	}

	// No completed task re-executed: across both incarnations every task
	// succeeded exactly once.
	events, err := store2.Events()
	if err != nil {
		t.Fatal(err)
	}
	successes, resumes := 0, 0
	for _, ev := range events {
		if ev.Type == provenance.TaskEnd && ev.ExitCode == 0 && ev.Error == "" {
			successes++
		}
		if ev.Type == provenance.WorkflowResumed {
			resumes++
			if ev.Recovered != completedAtCrash {
				t.Fatalf("resume event recovered=%d, want %d", ev.Recovered, completedAtCrash)
			}
		}
	}
	if successes != totalTasks {
		t.Fatalf("%d successful task-end events across both incarnations, want %d (no re-execution)", successes, totalTasks)
	}
	if resumes != 1 {
		t.Fatalf("workflow-resumed events = %d, want 1", resumes)
	}

	// Identical, readable outputs.
	got := append([]string(nil), rep.Outputs...)
	want := append([]string(nil), refRep.Outputs...)
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("outputs after resume = %v, reference = %v", got, want)
	}
	for _, out := range got {
		if !env.FS.Readable(out) {
			t.Fatalf("output %s not readable after resume", out)
		}
	}
}

// TestResumeDistinguishesSameSignatureSameInputs is the regression test for
// a recovery-matching bug the scenario verifier surfaced: two tasks sharing
// a signature AND an input set but producing different outputs (a fan-out)
// must not swap completion events on resume. The long twin is deliberately
// parsed first so that, were recovery keyed on signature+inputs alone, it
// would steal the short twin's recorded event, be marked complete without
// its output existing, and wedge the merge task's stage-in.
func TestResumeDistinguishesSameSignatureSameInputs(t *testing.T) {
	twins := func() wf.Driver {
		return &wf.StaticBase{WFName: "twin-fanout", Build: func() ([]*wf.Task, []string, []wf.Edge, error) {
			var ids wf.IDSeq
			long := newTask(&ids, "clone", []string{"/data/in.dat"}, []wf.FileInfo{{Path: "/wf/long.dat", SizeMB: 16}})
			long.CPUSeconds = 120
			short := newTask(&ids, "clone", []string{"/data/in.dat"}, []wf.FileInfo{{Path: "/wf/short.dat", SizeMB: 16}})
			short.CPUSeconds = 5
			merge := newTask(&ids, "merge", []string{"/wf/long.dat", "/wf/short.dat"}, []wf.FileInfo{{Path: "/wf/out.dat", SizeMB: 16}})
			merge.CPUSeconds = 5
			return []*wf.Task{long, short, merge}, []string{"/data/in.dat"}, nil, nil
		}}
	}
	inputs := []workloads.Input{{Path: "/data/in.dat", SizeMB: 32}}
	store := provenance.NewMemStore()
	eng, env := newEnv(t, 3, store, inputs)
	cfg := core.Config{WorkflowID: "twin-resume", ContainerVCores: 1, ContainerMemMB: 1024}
	am, err := core.Launch(env, twins(), scheduler.NewFCFS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ts := 1.0; am.CompletedTasks() < 1 && !am.Finished(); ts++ {
		eng.RunUntil(ts)
	}
	if am.Finished() {
		t.Fatal("workflow finished before the crash could be injected")
	}
	if got := am.CompletedTasks(); got != 1 {
		t.Fatalf("%d tasks completed at the crash, want exactly the short twin", got)
	}
	am.Kill()

	am2, err := core.Resume(env, twins(), scheduler.NewFCFS(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	rep, err := am2.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded {
		t.Fatalf("resume misrecovered the fan-out twins: %v", rep.Err)
	}
	if rep.Recovered != 1 {
		t.Fatalf("recovered %d tasks, want 1 (the short twin only)", rep.Recovered)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("resumed incarnation executed %d tasks, want 2 (long twin + merge)", len(rep.Results))
	}
	events, err := store.Events()
	if err != nil {
		t.Fatal(err)
	}
	successes := 0
	for _, ev := range events {
		if ev.Type == provenance.TaskEnd && ev.ExitCode == 0 && ev.Error == "" {
			successes++
		}
	}
	if successes != 3 {
		t.Fatalf("%d successful task-end events across both incarnations, want 3 (no re-execution)", successes)
	}
}

// TestChaosHangSpeculation hangs a task's first attempt forever; the
// deadline must fire, a speculative duplicate must win on another node, and
// the hung loser's container must be released — no leaked capacity.
func TestChaosHangSpeculation(t *testing.T) {
	driver, inputs := snvWorkload()
	plan := chaos.NewPlan(11)
	plan.AddRule(chaos.TaskRule{Signature: "bowtie2", Attempt: 0, Count: 1, Fate: chaos.FateHang})
	_, env := newEnv(t, 4, provenance.NewMemStore(), inputs)
	cfg := core.Config{
		ContainerVCores: 2, ContainerMemMB: 4096,
		Chaos:               plan,
		TaskTimeoutFloorSec: 60,
		Speculate:           true,
	}
	rep, err := core.Run(env, driver, scheduler.NewFCFS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded {
		t.Fatal(rep.Err)
	}
	if rep.TimedOut < 1 {
		t.Fatalf("timed out attempts = %d, want >= 1", rep.TimedOut)
	}
	if rep.Speculative < 1 {
		t.Fatalf("speculative attempts = %d, want >= 1", rep.Speculative)
	}
	if rep.Retries != 0 {
		t.Fatalf("retries = %d; speculation must not count as retry", rep.Retries)
	}
	if n := env.RM.RunningContainers(); n != 0 {
		t.Fatalf("%d containers still allocated after the workflow finished (leak)", n)
	}
	// The losing (hung) attempt is visible in provenance as a killed one.
	events, _ := env.Prov.Store().Events()
	killed := 0
	for _, ev := range events {
		if ev.Type == provenance.TaskEnd && ev.ExitCode == 137 {
			killed++
		}
	}
	if killed < 1 {
		t.Fatal("hung loser attempt left no provenance record")
	}
}
