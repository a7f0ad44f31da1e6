package tez

import (
	"fmt"
	"testing"

	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/obs"
	"hiway/internal/sim"
	"hiway/internal/wf"
	"hiway/internal/yarn"
)

func newEnv(t *testing.T, nodes int, switchMBps float64) (core.Env, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	spec := cluster.NodeSpec{VCores: 4, MemMB: 8192, CPUFactor: 1, DiskMBps: 200, NetMBps: 200}
	c, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: switchMBps}, nodes, spec)
	if err != nil {
		t.Fatal(err)
	}
	fs := hdfs.New(c, hdfs.Config{BlockSizeMB: 64, Replication: 2}, 11)
	rm := yarn.NewResourceManager(eng, c, yarn.Config{})
	return core.Env{Cluster: c, FS: fs, RM: rm}, eng
}

func fanDriver(n int, inputs []string) wf.StaticDriver {
	var ids wf.IDSeq
	var tasks []*wf.Task
	for i := 0; i < n; i++ {
		w := newTask(&ids, "work", inputs, []wf.FileInfo{{Path: fmt.Sprintf("/o/%d", i), SizeMB: 1}})
		w.CPUSeconds = 10
		tasks = append(tasks, w)
	}
	sb := &wf.StaticBase{WFName: "fan"}
	sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) { return tasks, inputs, nil, nil }
	return sb
}

func TestTezRunsDAGToCompletion(t *testing.T) {
	env, _ := newEnv(t, 3, 1000)
	env.FS.Put("/in/x", 10, "")
	rep, err := Run(env, fanDriver(6, []string{"/in/x"}), Config{Containers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded || len(rep.Results) != 6 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Containers != 3 {
		t.Fatalf("pool = %d", rep.Containers)
	}
	if !env.FS.Exists("/o/5") {
		t.Fatal("outputs not staged to HDFS")
	}
}

func TestTezContainerReuse(t *testing.T) {
	env, eng := newEnv(t, 2, 1000)
	o := obs.New(eng.Now)
	env.RM.SetObs(o)
	env.FS.Put("/in/x", 1, "")
	rep, err := Run(env, fanDriver(8, []string{"/in/x"}), Config{Containers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Only 2 containers were ever allocated for 8 tasks (plus the AM).
	if n := o.M().Counter("hiway_yarn_containers_allocated_total", "").Value(); n != 3 {
		t.Fatalf("allocated = %d, want 3 (reuse!)", n)
	}
	_ = rep
}

func TestTezMoreContainersFaster(t *testing.T) {
	run := func(containers int) float64 {
		env, _ := newEnv(t, 4, 10000)
		env.FS.Put("/in/x", 1, "")
		rep, err := Run(env, fanDriver(16, []string{"/in/x"}), Config{Containers: containers})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MakespanSec
	}
	if t4, t12 := run(4), run(12); t12 >= t4 {
		t.Fatalf("12 containers (%.1fs) should beat 4 (%.1fs)", t12, t4)
	}
}

func TestTezFailedTaskAborts(t *testing.T) {
	env, _ := newEnv(t, 2, 1000)
	env.FS.Put("/in/x", 1, "")
	cfg := Config{Behavior: func(task *wf.Task) wf.Outcome {
		out := wf.DefaultOutcome(task)
		out.ExitCode = 1
		return out
	}}
	rep, err := Run(env, fanDriver(2, []string{"/in/x"}), cfg)
	if err == nil || rep.Succeeded {
		t.Fatalf("expected failure: %+v", rep)
	}
}

func TestTezParseErrorPropagates(t *testing.T) {
	env, _ := newEnv(t, 2, 1000)
	sb := &wf.StaticBase{WFName: "bad", Build: func() ([]*wf.Task, []string, []wf.Edge, error) {
		return nil, nil, nil, fmt.Errorf("bad workflow")
	}}
	if _, err := Run(env, sb, Config{}); err == nil {
		t.Fatal("parse error must propagate")
	}
}

// newTask builds a one-output task numbered by the run's ID sequence.
func newTask(ids *wf.IDSeq, name string, inputs []string, outputs []wf.FileInfo) *wf.Task {
	return &wf.Task{ID: ids.Next(), Name: name, Inputs: inputs,
		OutputParams: []string{"out"}, Declared: map[string][]wf.FileInfo{"out": outputs}, Threads: 1}
}
