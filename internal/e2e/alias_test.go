package e2e

import (
	"os"
	"reflect"
	"slices"
	"testing"

	"hiway/internal/core"
	"hiway/internal/lang"
	"hiway/internal/memo"
	"hiway/internal/provenance"
	"hiway/internal/scheduler"
	"hiway/internal/wf"
	"hiway/internal/workloads"
)

// declWatch wraps a driver and keeps a deep copy of every task's declared
// outputs as the driver hands the task out. A default outcome is the task's
// Declared map itself, so anything downstream that wrote into a result's
// outputs would change the declaration; unchanged reports whether none did.
type declWatch struct {
	wf.Driver
	tasks []*wf.Task
	decl  []map[string][]wf.FileInfo
}

// staticWatch keeps a static driver static, so static policies accept it.
type staticWatch struct{ *declWatch }

func (s staticWatch) Graph() *wf.DAG { return s.Driver.(wf.StaticDriver).Graph() }

func watch(d wf.Driver) (wf.Driver, *declWatch) {
	w := &declWatch{Driver: d}
	if _, ok := d.(wf.StaticDriver); ok {
		return staticWatch{w}, w
	}
	return w, w
}

func (w *declWatch) note(tasks []*wf.Task) {
	for _, t := range tasks {
		if slices.Contains(w.tasks, t) {
			continue
		}
		copied := make(map[string][]wf.FileInfo, len(t.Declared))
		for p, fis := range t.Declared {
			copied[p] = slices.Clone(fis)
		}
		w.tasks = append(w.tasks, t)
		w.decl = append(w.decl, copied)
	}
}

func (w *declWatch) Parse() ([]*wf.Task, error) {
	tasks, err := w.Driver.Parse()
	w.note(tasks)
	if s, ok := w.Driver.(wf.StaticDriver); ok && err == nil {
		w.note(s.Graph().All())
	}
	return tasks, err
}

func (w *declWatch) OnTaskComplete(res *wf.TaskResult) ([]*wf.Task, error) {
	tasks, err := w.Driver.OnTaskComplete(res)
	w.note(tasks)
	return tasks, err
}

func (w *declWatch) unchanged(t *testing.T, run string) {
	t.Helper()
	if len(w.tasks) == 0 {
		t.Fatalf("%s: the driver handed out no tasks", run)
	}
	for i, task := range w.tasks {
		if !reflect.DeepEqual(task.Declared, w.decl[i]) {
			t.Fatalf("%s: %v's declared outputs changed during the run:\n got %v\nwant %v", run, task, task.Declared, w.decl[i])
		}
	}
}

func fileDriver(t *testing.T, language, path string) wf.Driver {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := lang.NewDriver(language, language+"-alias", string(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRunsLeaveDeclaredOutputsUntouched runs every frontend, the dynamic
// SNV behaviour, a memo splice and a kill/resume, and requires every task's
// Declared to be exactly what its driver handed out.
func TestRunsLeaveDeclaredOutputsUntouched(t *testing.T) {
	cfg := core.Config{ContainerVCores: 2, ContainerMemMB: 7000}
	snvCWLInputs := []workloads.Input{{Path: "/ref/hg38.idx", SizeMB: 3500}}
	for _, p := range []string{"0", "1", "2", "3", "4", "5", "6", "7"} {
		snvCWLInputs = append(snvCWLInputs, workloads.Input{Path: "/reads/sample000/part0" + p + ".fq", SizeMB: 1024})
	}
	demoInputs := []workloads.Input{{Path: "seed.txt", SizeMB: 64}}
	run := func(name string, d wf.Driver, inputs []workloads.Input, policy string, cfg core.Config) {
		t.Helper()
		d, w := watch(d)
		_, env := newEnv(t, 4, nil, inputs)
		sched, err := scheduler.New(policy, scheduler.Deps{Locality: env.FS, Estimator: env.Prov})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Run(env, d, sched, cfg)
		if err != nil || !rep.Succeeded {
			t.Fatalf("%s: %v", name, err)
		}
		w.unchanged(t, name)
	}

	run("demo.cf", fileDriver(t, "cuneiform", "../../examples/demo.cf"), demoInputs, scheduler.PolicyDataAware, cfg)
	run("snv.cwl", fileDriver(t, "cwl", "../../examples/snv.cwl"), snvCWLInputs, scheduler.PolicyDataAware, cfg)
	montage, montageInputs := workloads.Montage(workloads.MontageConfig{Degree: 0.25})
	run("montage DAX under HEFT", montage, montageInputs, scheduler.PolicyHEFT, cfg)
	trapline, traplineInputs, err := workloads.TRAPLINEFromGalaxy(workloads.TRAPLINEConfig{LanesPerGroup: 2, ReadsSizeMB: 256})
	if err != nil {
		t.Fatal(err)
	}
	run("TRAPLINE Galaxy", trapline, traplineInputs, scheduler.PolicyFCFS, cfg)
	snv, snvInputs, behavior := workloads.SNVCuneiformDriver("snv-alias", workloads.SNVConfig{
		Samples: 2, FilesPerSample: 3, FileSizeMB: 64, CallSplitRegions: 4,
		AlignCPUSeconds: 20, SortCPUSeconds: 10, CallCPUSeconds: 15, AnnotateCPUSeconds: 5, RefLocal: true,
	})
	withBehavior := cfg
	withBehavior.Behavior = behavior
	run("SNV Cuneiform behaviour", snv, snvInputs, scheduler.PolicyDataAware, withBehavior)

	// A memo splice: the second run of demo.cf takes every task from the
	// table the first one filled.
	tab := memo.New(0)
	for _, id := range []string{"memo-cold", "memo-warm"} {
		d, w := watch(fileDriver(t, "cuneiform", "../../examples/demo.cf"))
		_, env := newEnv(t, 4, nil, demoInputs)
		memoCfg := cfg
		memoCfg.WorkflowID, memoCfg.Memo = id, tab
		rep, err := core.Run(env, d, scheduler.NewFCFS(), memoCfg)
		if err != nil || !rep.Succeeded {
			t.Fatalf("%s: %v", id, err)
		}
		if id == "memo-warm" && rep.Memoized != len(rep.Results) {
			t.Fatalf("warm run spliced %d of %d tasks", rep.Memoized, len(rep.Results))
		}
		w.unchanged(t, id)
	}

	// A kill/resume: the second incarnation recovers the first one's
	// completions from the provenance store and runs the rest.
	store := provenance.NewMemStore()
	snv1, snvResumeInputs := snvWorkload()
	d1, w1 := watch(snv1)
	eng, env := newEnv(t, 4, store, snvResumeInputs)
	resumeCfg := cfg
	resumeCfg.WorkflowID = "alias-resume"
	am, err := core.Launch(env, d1, scheduler.NewFCFS(), resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	for ts := 5.0; am.CompletedTasks() < 2 && !am.Finished(); ts += 5 {
		eng.RunUntil(ts)
	}
	am.Kill()
	if err := env.Prov.Flush(); err != nil {
		t.Fatal(err)
	}
	snv2, _ := snvWorkload()
	d2, w2 := watch(snv2)
	am2, err := core.Resume(env, d2, scheduler.NewFCFS(), resumeCfg, store)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	rep, err := am2.Report()
	if err != nil || !rep.Succeeded || rep.Recovered == 0 {
		t.Fatalf("resume: recovered %d, %v", rep.Recovered, err)
	}
	w1.unchanged(t, "killed incarnation")
	w2.unchanged(t, "resumed incarnation")
}
