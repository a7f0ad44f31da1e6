package wf

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// testIDs numbers the tasks these tests build. A DAG asks only that its
// task IDs be distinct, which one sequence for the whole package gives.
var testIDs IDSeq

func mkTask(name string, inputs []string, outputs ...string) *Task {
	fis := make([]FileInfo, len(outputs))
	for i, o := range outputs {
		fis[i] = FileInfo{Path: o, SizeMB: 1}
	}
	return &Task{ID: testIDs.Next(), Name: name, Inputs: inputs,
		OutputParams: []string{"out"}, Declared: map[string][]FileInfo{"out": fis}, Threads: 1}
}

func TestIDSeqCountsFromOnePerRun(t *testing.T) {
	var a, b IDSeq
	for want := int64(1); want <= 3; want++ {
		if got := a.Next(); got != want {
			t.Fatalf("a.Next() = %d, want %d", got, want)
		}
	}
	if got := b.Next(); got != 1 {
		t.Fatalf("a second run's first ID is %d, want 1: runs share no numbering", got)
	}
}

func TestTaskValidate(t *testing.T) {
	good := mkTask("a", []string{"in"}, "out")
	if err := good.Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	for _, bad := range []*Task{
		{ID: 1},
		mkTask("neg", nil, "o"),
		mkTask("selfloop", []string{"x"}, "x"),
		mkTask("emptyin", []string{""}, "o"),
		mkTask("emptyout", nil, ""),
	} {
		if bad.Name == "neg" {
			bad.CPUSeconds = -1
		}
		if err := bad.Validate(); err == nil {
			t.Fatalf("invalid task %q accepted", bad.Name)
		}
	}
}

func TestDeclaredOutputsOrder(t *testing.T) {
	task := &Task{
		ID:           1,
		Name:         "multi",
		OutputParams: []string{"bam", "log"},
		Declared: map[string][]FileInfo{
			"log": {{Path: "l", SizeMB: 1}},
			"bam": {{Path: "b1", SizeMB: 2}, {Path: "b2", SizeMB: 3}},
		},
	}
	paths := task.DeclaredPaths()
	want := []string{"b1", "b2", "l"}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("paths = %v, want %v", paths, want)
		}
	}
}

func TestDefaultOutcome(t *testing.T) {
	task := mkTask("a", nil, "o1", "o2")
	oc := DefaultOutcome(task)
	if oc.ExitCode != 0 || len(oc.Outputs["out"]) != 2 {
		t.Fatalf("outcome = %+v", oc)
	}
	// The outcome shares the declaration rather than copying it per
	// completion; it is read-only, so a Behavior that changes what a task
	// produces clones it first.
	if reflect.ValueOf(oc.Outputs).UnsafePointer() != reflect.ValueOf(task.Declared).UnsafePointer() {
		t.Fatal("DefaultOutcome copies the declaration")
	}
	if n := testing.AllocsPerRun(100, func() { oc = DefaultOutcome(task) }); n != 0 {
		t.Fatalf("DefaultOutcome allocates %.0f times", n)
	}
}

func TestResultOutputFilesIncludesExtras(t *testing.T) {
	task := mkTask("a", nil, "o")
	res := &TaskResult{
		Task: task,
		Outputs: map[string][]FileInfo{
			"out":   {{Path: "o"}},
			"bonus": {{Path: "b"}},
		},
	}
	files := res.OutputFiles()
	if len(files) != 2 || files[0].Path != "o" || files[1].Path != "b" {
		t.Fatalf("files = %v", files)
	}
}

func TestResultSucceeded(t *testing.T) {
	if !(&TaskResult{}).Succeeded() {
		t.Fatal("clean result should succeed")
	}
	if (&TaskResult{ExitCode: 1}).Succeeded() {
		t.Fatal("exit 1 should fail")
	}
	if (&TaskResult{Error: "boom"}).Succeeded() {
		t.Fatal("error should fail")
	}
}

// Chain: a -> b -> c via files.
func TestDAGChain(t *testing.T) {
	a := mkTask("a", []string{"in"}, "x")
	b := mkTask("b", []string{"x"}, "y")
	c := mkTask("c", []string{"y"}, "z")
	d, err := NewDAG([]*Task{a, b, c}, []string{"in"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ready := d.Ready()
	if len(ready) != 1 || ready[0] != a {
		t.Fatalf("ready = %v", ready)
	}
	if d.Ready() != nil {
		t.Fatal("Ready must not re-release tasks")
	}
	next := d.Complete(a)
	if len(next) != 1 || next[0] != b {
		t.Fatalf("after a: %v", next)
	}
	next = d.Complete(b)
	if len(next) != 1 || next[0] != c {
		t.Fatalf("after b: %v", next)
	}
	if d.Done() {
		t.Fatal("not done yet")
	}
	d.Complete(c)
	if !d.Done() || d.Remaining() != 0 {
		t.Fatal("should be done")
	}
	sinks := d.Sinks()
	if len(sinks) != 1 || sinks[0] != "z" {
		t.Fatalf("sinks = %v", sinks)
	}
}

func TestDAGDiamond(t *testing.T) {
	a := mkTask("a", []string{"in"}, "x")
	b := mkTask("b", []string{"x"}, "y1")
	c := mkTask("c", []string{"x"}, "y2")
	e := mkTask("e", []string{"y1", "y2"}, "z")
	d, err := NewDAG([]*Task{a, b, c, e}, []string{"in"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Ready()
	next := d.Complete(a)
	if len(next) != 2 {
		t.Fatalf("diamond fan-out = %v", next)
	}
	d.Complete(b)
	if got := d.Complete(c); len(got) != 1 || got[0] != e {
		t.Fatalf("join not released correctly: %v", got)
	}
	if len(d.Predecessors(e)) != 2 || len(d.Successors(a)) != 2 {
		t.Fatal("adjacency wrong")
	}
}

func TestDAGExplicitEdges(t *testing.T) {
	a := mkTask("a", nil, "x")
	b := mkTask("b", nil, "y") // no data dep on a
	d, err := NewDAG([]*Task{a, b}, nil, []Edge{{Parent: a.ID, Child: b.ID}})
	if err != nil {
		t.Fatal(err)
	}
	ready := d.Ready()
	if len(ready) != 1 || ready[0] != a {
		t.Fatalf("explicit edge ignored: %v", ready)
	}
	if got := d.Complete(a); len(got) != 1 || got[0] != b {
		t.Fatalf("child not released: %v", got)
	}
}

func TestDAGRejectsCycle(t *testing.T) {
	a := mkTask("a", []string{"z"}, "x")
	b := mkTask("b", []string{"x"}, "z")
	if _, err := NewDAG([]*Task{a, b}, nil, nil); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestDAGRejectsExplicitCycle(t *testing.T) {
	a := mkTask("a", nil, "x")
	b := mkTask("b", nil, "y")
	edges := []Edge{{Parent: a.ID, Child: b.ID}, {Parent: b.ID, Child: a.ID}}
	if _, err := NewDAG([]*Task{a, b}, nil, edges); err == nil {
		t.Fatal("explicit cycle not detected")
	}
}

func TestDAGRejectsMissingProducer(t *testing.T) {
	a := mkTask("a", []string{"ghost"}, "x")
	_, err := NewDAG([]*Task{a}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("missing producer not reported: %v", err)
	}
}

func TestDAGRejectsDuplicateProducer(t *testing.T) {
	a := mkTask("a", nil, "x")
	b := mkTask("b", nil, "x")
	if _, err := NewDAG([]*Task{a, b}, nil, nil); err == nil {
		t.Fatal("duplicate producer not detected")
	}
}

func TestDAGRejectsUnknownEdgeEndpoint(t *testing.T) {
	a := mkTask("a", nil, "x")
	if _, err := NewDAG([]*Task{a}, nil, []Edge{{Parent: a.ID, Child: 9999}}); err == nil {
		t.Fatal("unknown edge endpoint not detected")
	}
	if _, err := NewDAG([]*Task{a}, nil, []Edge{{Parent: a.ID, Child: a.ID}}); err == nil {
		t.Fatal("self edge not detected")
	}
}

func TestDAGCompleteIdempotent(t *testing.T) {
	a := mkTask("a", nil, "x")
	b := mkTask("b", []string{"x"}, "y")
	d, _ := NewDAG([]*Task{a, b}, nil, nil)
	d.Ready()
	d.Complete(a)
	if got := d.Complete(a); got != nil {
		t.Fatalf("double complete released %v", got)
	}
}

func TestDAGTopoOrder(t *testing.T) {
	a := mkTask("a", []string{"in"}, "x")
	b := mkTask("b", []string{"x"}, "y")
	c := mkTask("c", []string{"x"}, "w")
	e := mkTask("e", []string{"y", "w"}, "z")
	d, _ := NewDAG([]*Task{a, b, c, e}, []string{"in"}, nil)
	order := d.TopoOrder()
	pos := map[int64]int{}
	for i, task := range order {
		pos[task.ID] = i
	}
	for _, task := range d.All() {
		for _, p := range d.Predecessors(task) {
			if pos[p.ID] >= pos[task.ID] {
				t.Fatalf("topo order violated: %s before %s", task, p)
			}
		}
	}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
}

func TestDAGInitialInputs(t *testing.T) {
	a := mkTask("a", []string{"in1", "in2"}, "x")
	d, _ := NewDAG([]*Task{a}, []string{"in1", "in2"}, nil)
	got := d.InitialInputs()
	if len(got) != 2 || got[0] != "in1" || got[1] != "in2" {
		t.Fatalf("initial inputs = %v", got)
	}
}

// Property: for a random layered DAG, releasing tasks in any completion
// order (i) never releases a task before all predecessors completed and
// (ii) releases every task exactly once.
func TestDAGReleaseInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		layers := rng.Intn(4) + 1
		var tasks []*Task
		var prevOutputs []string
		inputs := []string{"seed-in"}
		avail := append([]string(nil), inputs...)
		for l := 0; l < layers; l++ {
			width := rng.Intn(4) + 1
			var outs []string
			for w := 0; w < width; w++ {
				// Each task consumes 1..k files from what exists so far.
				n := rng.Intn(len(avail)) + 1
				perm := rng.Perm(len(avail))
				var ins []string
				for _, idx := range perm[:n] {
					ins = append(ins, avail[idx])
				}
				out := strings.Join([]string{"f", string(rune('a' + l)), string(rune('0' + w))}, "-")
				tasks = append(tasks, mkTask("t", ins, out))
				outs = append(outs, out)
			}
			avail = append(avail, outs...)
			prevOutputs = outs
		}
		_ = prevOutputs
		d, err := NewDAG(tasks, inputs, nil)
		if err != nil {
			return false
		}
		completed := map[int64]bool{}
		released := map[int64]int{}
		frontier := d.Ready()
		for _, task := range frontier {
			released[task.ID]++
		}
		for len(frontier) > 0 {
			// Complete a random ready task.
			i := rng.Intn(len(frontier))
			task := frontier[i]
			frontier = append(frontier[:i], frontier[i+1:]...)
			for _, p := range d.Predecessors(task) {
				if !completed[p.ID] {
					return false // released too early
				}
			}
			completed[task.ID] = true
			for _, nt := range d.Complete(task) {
				released[nt.ID]++
				frontier = append(frontier, nt)
			}
		}
		if !d.Done() {
			return false
		}
		for _, task := range tasks {
			if released[task.ID] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStaticBaseDriver(t *testing.T) {
	a := mkTask("a", []string{"in"}, "x")
	b := mkTask("b", []string{"x"}, "y")
	s := &StaticBase{
		WFName: "test",
		Build: func() ([]*Task, []string, []Edge, error) {
			return []*Task{a, b}, []string{"in"}, nil, nil
		},
	}
	ready, err := s.Parse()
	if err != nil || len(ready) != 1 {
		t.Fatalf("parse: %v %v", ready, err)
	}
	if s.Done() {
		t.Fatal("done too early")
	}
	res := &TaskResult{Task: a, Outputs: map[string][]FileInfo{"out": a.Declared["out"]}}
	next, err := s.OnTaskComplete(res)
	if err != nil || len(next) != 1 || next[0] != b {
		t.Fatalf("complete: %v %v", next, err)
	}
	if _, err := s.OnTaskComplete(&TaskResult{Task: b, ExitCode: 2}); err == nil {
		t.Fatal("failed task must surface an error")
	}
	ok := &TaskResult{Task: b, Outputs: map[string][]FileInfo{"out": b.Declared["out"]}}
	if _, err := s.OnTaskComplete(ok); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("should be done")
	}
	if outs := s.Outputs(); len(outs) != 1 || outs[0] != "y" {
		t.Fatalf("outputs = %v", outs)
	}
}

func TestStaticBaseErrors(t *testing.T) {
	s := &StaticBase{WFName: "empty"}
	if _, err := s.Parse(); err == nil {
		t.Fatal("missing Build must error")
	}
	s2 := &StaticBase{WFName: "x", Build: func() ([]*Task, []string, []Edge, error) {
		return []*Task{mkTask("a", []string{"ghost"}, "o")}, nil, nil, nil
	}}
	if _, err := s2.Parse(); err == nil {
		t.Fatal("bad graph must error")
	}
	s3 := &StaticBase{WFName: "y", Build: func() ([]*Task, []string, []Edge, error) {
		return nil, nil, nil, nil
	}}
	if _, err := s3.OnTaskComplete(&TaskResult{}); err == nil {
		t.Fatal("OnTaskComplete before Parse must error")
	}
}

func TestOutputPath(t *testing.T) {
	for _, c := range []struct{ name, want string }{
		{"My Workflow/1.0", "My_Workflow_1_0"},
		{"snv-calling_v2", "snv-calling_v2"},
		{"é", "_"},
	} {
		if got := SafeName(c.name); got != c.want {
			t.Errorf("SafeName(%q) = %q, want %q", c.name, got, c.want)
		}
	}
	if got, want := OutputPath("My Workflow", "align", 7, "bam"), "My_Workflow/align_7/bam"; got != want {
		t.Errorf("OutputPath = %q, want %q", got, want)
	}
}
