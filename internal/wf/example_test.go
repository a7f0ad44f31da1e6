package wf_test

import (
	"fmt"

	"hiway/internal/wf"
)

// newTask builds a one-output task numbered by the run's ID sequence.
func newTask(ids *wf.IDSeq, name string, inputs []string, out wf.FileInfo) *wf.Task {
	return &wf.Task{ID: ids.Next(), Name: name, Inputs: inputs,
		OutputParams: []string{"out"}, Declared: map[string][]wf.FileInfo{"out": {out}}, Threads: 1}
}

// ExampleAnalyze inspects a small diamond-shaped workflow.
func ExampleAnalyze() {
	var ids wf.IDSeq
	prep := newTask(&ids, "prep", []string{"in.dat"}, wf.FileInfo{Path: "split.dat", SizeMB: 10})
	prep.CPUSeconds = 10
	left := newTask(&ids, "left", []string{"split.dat"}, wf.FileInfo{Path: "l.dat", SizeMB: 5})
	left.CPUSeconds = 100
	right := newTask(&ids, "right", []string{"split.dat"}, wf.FileInfo{Path: "r.dat", SizeMB: 5})
	right.CPUSeconds = 40
	join := newTask(&ids, "join", []string{"l.dat", "r.dat"}, wf.FileInfo{Path: "out.dat", SizeMB: 1})
	join.CPUSeconds = 5

	dag, err := wf.NewDAG([]*wf.Task{prep, left, right, join}, []string{"in.dat"}, nil)
	if err != nil {
		panic(err)
	}
	a := wf.Analyze(dag)
	fmt.Printf("tasks=%d depth=%d parallelism=%d critical=%.0fs\n",
		a.Tasks, a.Depth, a.MaxParallelism, a.CriticalPathCPUSeconds)
	// Output:
	// tasks=4 depth=3 parallelism=2 critical=115s
}

// ExampleDAG shows readiness tracking as tasks complete.
func ExampleDAG() {
	var ids wf.IDSeq
	a := newTask(&ids, "a", []string{"in"}, wf.FileInfo{Path: "x"})
	b := newTask(&ids, "b", []string{"x"}, wf.FileInfo{Path: "y"})
	dag, err := wf.NewDAG([]*wf.Task{a, b}, []string{"in"}, nil)
	if err != nil {
		panic(err)
	}
	for _, t := range dag.Ready() {
		fmt.Println("ready:", t.Name)
	}
	for _, t := range dag.Complete(a) {
		fmt.Println("unlocked:", t.Name)
	}
	// Output:
	// ready: a
	// unlocked: b
}
