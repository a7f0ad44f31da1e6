package wf

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refDAG is the map-per-field DAG that DAG replaced: one map per attribute,
// keyed by task ID, a separate cycle check and a topological walk that
// re-sorts its frontier on every pop. It stays as the reference that
// TestDAGMatchesReference drives beside DAG.
type refDAG struct {
	tasks []*Task
	byID  map[int64]*Task

	producer map[string]*Task  // output path → producing task
	preds    map[int64][]*Task // deduplicated predecessor lists
	succs    map[int64][]*Task

	waiting   map[int64]int // task ID → unmet dependency count
	completed map[int64]bool
	available map[string]bool // file paths that exist

	released map[int64]bool // tasks already handed out as ready
}

// newRefDAG builds a refDAG over the tasks. initialInputs are files that exist
// before execution starts. Explicit edges supplement the data dependencies
// inferred from matching output→input paths. Construction fails on
// duplicate producers, unknown edge endpoints, inputs nobody provides, or
// cycles.
func newRefDAG(tasks []*Task, initialInputs []string, edges []Edge) (*refDAG, error) {
	d := &refDAG{
		byID:      make(map[int64]*Task, len(tasks)),
		producer:  make(map[string]*Task),
		preds:     make(map[int64][]*Task),
		succs:     make(map[int64][]*Task),
		waiting:   make(map[int64]int),
		completed: make(map[int64]bool),
		available: make(map[string]bool),
		released:  make(map[int64]bool),
	}
	d.tasks = append(d.tasks, tasks...)
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if t.ID > int64(len(tasks)) {
			return nil, fmt.Errorf("wf: task ID %d outside 1..%d", t.ID, len(tasks))
		}
		if _, dup := d.byID[t.ID]; dup {
			return nil, fmt.Errorf("wf: duplicate task ID %d", t.ID)
		}
		d.byID[t.ID] = t
		for _, fi := range t.DeclaredOutputs() {
			if prev, dup := d.producer[fi.Path]; dup {
				return nil, fmt.Errorf("wf: %s produced by both %s and %s", fi.Path, prev, t)
			}
			d.producer[fi.Path] = t
		}
	}
	for _, p := range initialInputs {
		d.available[p] = true
	}

	// Infer data edges and validate that every input has a source.
	depSet := make(map[int64]map[int64]bool)
	addDep := func(child, parent *Task) {
		if parent.ID == child.ID {
			return
		}
		set := depSet[child.ID]
		if set == nil {
			set = make(map[int64]bool)
			depSet[child.ID] = set
		}
		if set[parent.ID] {
			return
		}
		set[parent.ID] = true
		d.preds[child.ID] = append(d.preds[child.ID], parent)
		d.succs[parent.ID] = append(d.succs[parent.ID], child)
	}
	for _, t := range tasks {
		for _, in := range t.Inputs {
			if d.available[in] {
				continue
			}
			p, ok := d.producer[in]
			if !ok {
				return nil, fmt.Errorf("wf: %s consumes %s, which no task produces and is not an initial input", t, in)
			}
			if p.ID == t.ID {
				return nil, fmt.Errorf("wf: %s consumes its own output %s", t, in)
			}
			addDep(t, p)
		}
	}
	for _, e := range edges {
		p, ok := d.byID[e.Parent]
		if !ok {
			return nil, fmt.Errorf("wf: edge references unknown parent %d", e.Parent)
		}
		c, ok := d.byID[e.Child]
		if !ok {
			return nil, fmt.Errorf("wf: edge references unknown child %d", e.Child)
		}
		if p.ID == c.ID {
			return nil, fmt.Errorf("wf: self edge on task %d", e.Parent)
		}
		addDep(c, p)
	}
	for _, t := range tasks {
		d.waiting[t.ID] = len(d.preds[t.ID])
	}
	if err := d.checkAcyclic(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *refDAG) checkAcyclic() error {
	indeg := make(map[int64]int, len(d.tasks))
	for _, t := range d.tasks {
		indeg[t.ID] = len(d.preds[t.ID])
	}
	var queue []*Task
	for _, t := range d.tasks {
		if indeg[t.ID] == 0 {
			queue = append(queue, t)
		}
	}
	visited := 0
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		visited++
		for _, s := range d.succs[t.ID] {
			indeg[s.ID]--
			if indeg[s.ID] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if visited != len(d.tasks) {
		return fmt.Errorf("wf: workflow graph contains a cycle (%d of %d tasks reachable)", visited, len(d.tasks))
	}
	return nil
}

// All returns every task in insertion order.
func (d *refDAG) All() []*Task { return d.tasks }

// Predecessors returns the tasks that must complete before t.
func (d *refDAG) Predecessors(t *Task) []*Task { return d.preds[t.ID] }

// Successors returns the tasks that depend on t.
func (d *refDAG) Successors(t *Task) []*Task { return d.succs[t.ID] }

// Ready returns tasks whose dependencies are met and that have not been
// released before, in deterministic (ID) order.
func (d *refDAG) Ready() []*Task {
	var out []*Task
	for _, t := range d.tasks {
		if !d.released[t.ID] && !d.completed[t.ID] && d.waiting[t.ID] == 0 {
			d.released[t.ID] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Complete marks t done (registering its outputs as available) and returns
// the tasks that became ready as a consequence.
func (d *refDAG) Complete(t *Task, produced []FileInfo) []*Task {
	if d.completed[t.ID] {
		return nil
	}
	d.completed[t.ID] = true
	for _, fi := range produced {
		d.available[fi.Path] = true
	}
	var ready []*Task
	for _, s := range d.succs[t.ID] {
		d.waiting[s.ID]--
		if d.waiting[s.ID] == 0 && !d.released[s.ID] {
			d.released[s.ID] = true
			ready = append(ready, s)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i].ID < ready[j].ID })
	return ready
}

// Done reports whether every task has completed.
func (d *refDAG) Done() bool {
	return len(d.completed) == len(d.tasks)
}

// Sinks returns the declared outputs of tasks with no successors — the
// workflow's final products.
func (d *refDAG) Sinks() []string {
	var out []string
	for _, t := range d.tasks {
		if len(d.succs[t.ID]) == 0 {
			out = append(out, t.DeclaredPaths()...)
		}
	}
	sort.Strings(out)
	return out
}

// TopoOrder returns the tasks in a deterministic topological order
// (Kahn's algorithm, ties broken by task ID).
func (d *refDAG) TopoOrder() []*Task {
	indeg := make(map[int64]int, len(d.tasks))
	var frontier []*Task
	for _, t := range d.tasks {
		indeg[t.ID] = len(d.preds[t.ID])
		if indeg[t.ID] == 0 {
			frontier = append(frontier, t)
		}
	}
	var order []*Task
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool { return frontier[i].ID < frontier[j].ID })
		t := frontier[0]
		frontier = frontier[1:]
		order = append(order, t)
		for _, s := range d.succs[t.ID] {
			indeg[s.ID]--
			if indeg[s.ID] == 0 {
				frontier = append(frontier, s)
			}
		}
	}
	return order
}

// InitialInputs returns the initially available files, sorted.
func (d *refDAG) InitialInputs() []string {
	var out []string
	for p := range d.available {
		if _, produced := d.producer[p]; !produced {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// refAnalyze computes structural statistics for a DAG.
func refAnalyze(d *refDAG) Analysis {
	a := Analysis{
		Tasks:      len(d.tasks),
		Signatures: make(map[string]int),
	}
	a.InitialInputs = len(d.InitialInputs())

	level := make(map[int64]int, len(d.tasks))
	cpChain := make(map[int64]float64, len(d.tasks))
	for _, t := range d.TopoOrder() {
		a.Edges += len(d.preds[t.ID])
		a.Signatures[t.Name]++
		a.TotalCPUSeconds += t.CPUSeconds
		for _, fi := range t.DeclaredOutputs() {
			a.TotalOutputMB += fi.SizeMB
		}
		if t.MemMB > a.MaxMemMB {
			a.MaxMemMB = t.MemMB
		}
		lvl := 0
		chain := 0.0
		for _, p := range d.preds[t.ID] {
			if level[p.ID]+1 > lvl {
				lvl = level[p.ID] + 1
			}
			if cpChain[p.ID] > chain {
				chain = cpChain[p.ID]
			}
		}
		level[t.ID] = lvl
		cpChain[t.ID] = chain + t.CPUSeconds
		if cpChain[t.ID] > a.CriticalPathCPUSeconds {
			a.CriticalPathCPUSeconds = cpChain[t.ID]
		}
	}
	if a.Tasks > 0 {
		maxLvl := 0
		for _, l := range level {
			if l > maxLvl {
				maxLvl = l
			}
		}
		a.Depth = maxLvl + 1
		a.LevelWidths = make([]int, a.Depth)
		for _, l := range level {
			a.LevelWidths[l]++
		}
		for _, w := range a.LevelWidths {
			if w > a.MaxParallelism {
				a.MaxParallelism = w
			}
		}
	}
	return a
}

// randomGraph builds a seeded task graph for the differential test: data
// edges, repeated inputs, inputs produced by a later task, explicit edges
// that repeat data edges or each other, and initial inputs that some task
// also produces. About one graph in three then gets one fault: a missing
// producer, a cycle, a self edge, an unknown endpoint, a duplicate ID or
// producer, a task that consumes its own output, or an ID of 0, below 0 or
// above n. IDs run 1…n but not in insertion order, so a producer may hold a
// higher ID than its consumer.
func randomGraph(rng *rand.Rand) ([]*Task, []string, []Edge) {
	n := 2 + rng.Intn(40)
	ids := rng.Perm(n)
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = &Task{ID: int64(ids[i] + 1), Name: fmt.Sprintf("s%d", rng.Intn(4)),
			OutputParams: []string{"out"}, Declared: map[string][]FileInfo{},
			CPUSeconds: float64(rng.Intn(50)), MemMB: rng.Intn(4096)}
		for k := rng.Intn(3); k >= 0; k-- {
			tasks[i].Declared["out"] = append(tasks[i].Declared["out"],
				FileInfo{Path: fmt.Sprintf("f%d-%d", i, k), SizeMB: float64(rng.Intn(9))})
		}
	}
	out := func(i int) string { return tasks[i].Declared["out"][0].Path }
	var edges []Edge
	for i, t := range tasks {
		for k := rng.Intn(4); k > 0; k-- {
			switch r := rng.Intn(8); {
			case i == 0 || r < 2:
				t.Inputs = append(t.Inputs, fmt.Sprintf("in%d", rng.Intn(4)))
			case r == 2: // the same file twice
				in := out(rng.Intn(i))
				t.Inputs = append(t.Inputs, in, in)
			default:
				p := rng.Intn(i)
				t.Inputs = append(t.Inputs, out(p))
				if rng.Intn(3) == 0 { // repeated as an explicit edge, as a DAX does
					edges = append(edges, Edge{Parent: tasks[p].ID, Child: t.ID})
				}
			}
		}
		if i > 0 && rng.Intn(4) == 0 {
			edges = append(edges, Edge{Parent: tasks[rng.Intn(i)].ID, Child: t.ID})
		}
		if len(edges) > 0 && rng.Intn(6) == 0 {
			edges = append(edges, edges[rng.Intn(len(edges))])
		}
	}
	if rng.Intn(4) == 0 { // consumes a later task's output
		i := rng.Intn(n - 1)
		tasks[i].Inputs = append(tasks[i].Inputs, out(i+1+rng.Intn(n-1-i)))
	}
	initial := []string{"in0", "in1", "in2", "in3", "in1"}
	if rng.Intn(3) == 0 {
		initial = append(initial, out(rng.Intn(n)))
	}
	a, b := rng.Intn(n), rng.Intn(n)
	switch rng.Intn(24) {
	case 0:
		tasks[a].Inputs = append(tasks[a].Inputs, "ghost")
	case 1: // a two-task cycle
		if a != b {
			edges = append(edges, Edge{Parent: tasks[a].ID, Child: tasks[b].ID}, Edge{Parent: tasks[b].ID, Child: tasks[a].ID})
		}
	case 2:
		edges = append(edges, Edge{Parent: tasks[a].ID, Child: tasks[a].ID})
	case 3:
		edges = append(edges, Edge{Parent: tasks[a].ID, Child: 100000})
	case 4:
		edges = append(edges, Edge{Parent: 100000, Child: tasks[a].ID})
	case 5:
		tasks[a].ID = tasks[b].ID
	case 6:
		if a != b {
			tasks[a].Declared["out"] = append(tasks[a].Declared["out"], FileInfo{Path: out(b)})
		}
	case 7:
		tasks[a].Inputs = append(tasks[a].Inputs, out(a))
	case 8:
		tasks[a].ID = 0
	case 9:
		tasks[a].ID = -tasks[a].ID
	case 10:
		tasks[a].ID = int64(n + 1 + rng.Intn(3))
	}
	return tasks, initial, edges
}

// TestDAGMatchesReference drives DAG and refDAG over 200 seeded random
// graphs, each handed over in its generated order and in two shuffled
// orders: both must refuse the same graphs with the same text, agree on
// structure, and, under three completion orders per graph, release the
// same tasks in the same order.
func TestDAGMatchesReference(t *testing.T) {
	built, refused := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		generated, initial, edges := randomGraph(rng)
		for shuffle := 0; shuffle < 3; shuffle++ {
			tasks := slices.Clone(generated)
			if shuffle > 0 {
				rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
			}
			if matchReference(t, rng, fmt.Sprintf("seed %d shuffle %d", seed, shuffle), tasks, initial, edges) {
				built++
			} else {
				refused++
			}
		}
	}
	if built < 250 || refused < 150 {
		t.Fatalf("%d graphs built, %d refused: the generator lost its mix", built, refused)
	}
}

// matchReference builds DAG and refDAG over one input order and compares
// them; it reports whether the graph was built.
func matchReference(t *testing.T, rng *rand.Rand, name string, tasks []*Task, initial []string, edges []Edge) bool {
	t.Helper()
	d, err := NewDAG(tasks, initial, edges)
	ref, refErr := newRefDAG(tasks, initial, edges)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%s: NewDAG error %v, reference %v", name, err, refErr)
	}
	if err != nil {
		return false
	}
	sameTasks := func(what string, got, want []*Task) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %s = %v, reference %v", name, what, got, want)
		}
	}
	for _, task := range tasks {
		sameTasks("Predecessors", d.Predecessors(task), ref.Predecessors(task))
		sameTasks("Successors", d.Successors(task), ref.Successors(task))
	}
	sameTasks("TopoOrder", d.TopoOrder(), ref.TopoOrder())
	if !slices.Equal(d.InitialInputs(), ref.InitialInputs()) || !slices.Equal(d.Sinks(), ref.Sinks()) {
		t.Fatalf("%s: inputs %v sinks %v, reference %v %v", name, d.InitialInputs(), d.Sinks(), ref.InitialInputs(), ref.Sinks())
	}
	if got, want := Analyze(d), refAnalyze(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Analyze = %+v, reference %+v", name, got, want)
	}
	for order := 0; order < 3; order++ {
		d, _ := NewDAG(tasks, initial, edges)
		ref, _ := newRefDAG(tasks, initial, edges)
		frontier := d.Ready()
		sameTasks("Ready", frontier, ref.Ready())
		for len(frontier) > 0 {
			i := 0 // order 0 completes the oldest ready task first
			switch order {
			case 1:
				i = len(frontier) - 1
			case 2:
				i = rng.Intn(len(frontier))
			}
			task := frontier[i]
			frontier = append(frontier[:i], frontier[i+1:]...)
			next := d.Complete(task)
			sameTasks("Complete", next, ref.Complete(task, task.DeclaredOutputs()))
			frontier = append(frontier, next...)
			if rng.Intn(4) == 0 {
				sameTasks("Complete again", d.Complete(task), ref.Complete(task, task.DeclaredOutputs()))
				sameTasks("Ready mid-run", d.Ready(), ref.Ready())
			}
			if d.Done() != ref.Done() {
				t.Fatalf("%s: Done = %v, reference %v", name, d.Done(), ref.Done())
			}
		}
		if !d.Done() || !ref.Done() {
			t.Fatalf("%s order %d: frontier drained before every task completed", name, order)
		}
		if !slices.Equal(d.InitialInputs(), ref.InitialInputs()) {
			t.Fatalf("%s: after the run, inputs %v, reference %v", name, d.InitialInputs(), ref.InitialInputs())
		}
	}
	return true
}
