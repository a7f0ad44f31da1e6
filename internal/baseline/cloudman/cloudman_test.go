package cloudman

import (
	"fmt"
	"math"
	"testing"

	"hiway/internal/cluster"
	"hiway/internal/sim"
	"hiway/internal/wf"
)

func newCluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	eng := sim.NewEngine()
	c, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 10000},
		nodes, cluster.C32XLarge())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func pipelineDriver(lanes int) wf.StaticDriver {
	var ids wf.IDSeq
	var tasks []*wf.Task
	for i := 0; i < lanes; i++ {
		in := fmt.Sprintf("/in/lane%d", i)
		a := newTask(&ids, "tophat", []string{in}, []wf.FileInfo{{Path: fmt.Sprintf("/mid/%d", i), SizeMB: 500}})
		a.CPUSeconds = 100
		a.Threads = 8
		b := newTask(&ids, "cufflinks", []string{fmt.Sprintf("/mid/%d", i)}, []wf.FileInfo{{Path: fmt.Sprintf("/out/%d", i), SizeMB: 50}})
		b.CPUSeconds = 50
		tasks = append(tasks, a, b)
	}
	sb := &wf.StaticBase{WFName: "rnaseq"}
	sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
		var ins []string
		for i := 0; i < lanes; i++ {
			ins = append(ins, fmt.Sprintf("/in/lane%d", i))
		}
		return tasks, ins, nil, nil
	}
	return sb
}

func inputSizes(lanes int) map[string]float64 {
	m := map[string]float64{}
	for i := 0; i < lanes; i++ {
		m[fmt.Sprintf("/in/lane%d", i)] = 1000
	}
	return m
}

func TestCloudManRunsPipeline(t *testing.T) {
	cl := newCluster(t, 2)
	ran := 0
	rep, err := Run(cl, pipelineDriver(2), Config{InputSizesMB: inputSizes(2), Behavior: func(task *wf.Task) wf.Outcome {
		ran++
		return wf.DefaultOutcome(task)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 4 {
		t.Fatalf("ran %d tasks, want 4", ran)
	}
	if rep.MakespanSec <= 0 {
		t.Fatal("no time passed?")
	}
}

func TestCloudManRejectsLargeClusters(t *testing.T) {
	cl := newCluster(t, 21)
	if _, err := Run(cl, pipelineDriver(1), Config{}); err == nil {
		t.Fatal("21 nodes must exceed the CloudMan limit")
	}
}

func TestSharedVolumeContention(t *testing.T) {
	// Same workload, same node count; slower volume → slower run.
	run := func(volMBps float64) float64 {
		cl := newCluster(t, 4)
		rep, err := Run(cl, pipelineDriver(4), Config{VolumeMBps: volMBps, InputSizesMB: inputSizes(4)})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MakespanSec
	}
	slow, fast := run(50), run(2000)
	if slow <= fast {
		t.Fatalf("volume contention should hurt: slow=%.1f fast=%.1f", slow, fast)
	}
}

func TestSingleTaskPerNodeSerializes(t *testing.T) {
	// 4 independent CPU tasks on 1 node with 1 slot: strictly serial.
	var ids wf.IDSeq
	var tasks []*wf.Task
	for i := 0; i < 4; i++ {
		w := newTask(&ids, "w", nil, []wf.FileInfo{{Path: fmt.Sprintf("/o/%d", i), SizeMB: 0.1}})
		w.CPUSeconds = 10
		tasks = append(tasks, w)
	}
	sb := &wf.StaticBase{WFName: "serial"}
	sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) { return tasks, nil, nil, nil }
	cl := newCluster(t, 1)
	rep, err := Run(cl, sb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// c3.2xlarge has factor 1.15: each 10 core-second task takes 10/1.15s
	// serially.
	want := 4 * 10 / 1.15
	if math.Abs(rep.MakespanSec-want) > 1 {
		t.Fatalf("makespan = %.2f, want ~%.2f (serialized)", rep.MakespanSec, want)
	}
}

func TestFailedTaskAborts(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := Config{
		InputSizesMB: inputSizes(1),
		Behavior: func(task *wf.Task) wf.Outcome {
			out := wf.DefaultOutcome(task)
			out.Error = "tool crashed"
			return out
		},
	}
	rep, err := Run(cl, pipelineDriver(1), cfg)
	if err == nil || rep.Err != err {
		t.Fatalf("expected failure: %+v, %v", rep, err)
	}
}

// newTask builds a one-output task numbered by the run's ID sequence.
func newTask(ids *wf.IDSeq, name string, inputs []string, outputs []wf.FileInfo) *wf.Task {
	return &wf.Task{ID: ids.Next(), Name: name, Inputs: inputs,
		OutputParams: []string{"out"}, Declared: map[string][]wf.FileInfo{"out": outputs}, Threads: 1}
}
