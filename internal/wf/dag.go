package wf

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// DAG tracks readiness for a static task graph: a task becomes ready when
// every input file exists (initially staged or produced by a predecessor)
// and every explicit control dependency has completed. It also exposes the
// dependency structure that static schedulers (HEFT, round-robin) consume.
// A graph of n tasks holds IDs 1…n, and task k sits at position k−1, so
// every per-task table is a slice indexed by ID−1.
type DAG struct {
	tasks   []*Task
	nodes   []node   // nodes[i] is the state of tasks[i]
	initial []string // sorted initial inputs no task produces
	done    int      // completed tasks
}

// node is one task's place in the graph and its progress through it.
type node struct {
	preds, succs []*Task // deduplicated, in insertion order
	waiting      int     // unmet dependencies
	state        nodeState
}

type nodeState uint8

const (
	pending  nodeState = iota // not yet handed out
	released                  // handed out as ready
	complete
)

// Edge is an explicit control dependency (Parent must finish before Child).
type Edge struct {
	Parent, Child int64
}

// NewDAG builds a DAG over the tasks. initialInputs are files that exist
// before execution starts. Explicit edges supplement the data dependencies
// inferred from matching output→input paths. Construction fails on task IDs
// outside 1…len(tasks) or repeated, duplicate producers, unknown edge
// endpoints, inputs nobody provides, or cycles.
func NewDAG(tasks []*Task, initialInputs []string, edges []Edge) (*DAG, error) {
	d := &DAG{
		tasks: make([]*Task, len(tasks)),
		nodes: make([]node, len(tasks)),
	}
	producer := make(map[string]int32, len(tasks))
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		i, ok := d.pos(t.ID)
		if !ok {
			return nil, fmt.Errorf("wf: task ID %d outside 1..%d", t.ID, len(tasks))
		}
		if d.tasks[i] != nil {
			return nil, fmt.Errorf("wf: duplicate task ID %d", t.ID)
		}
		d.tasks[i] = t
		for _, p := range t.OutputParams {
			for _, fi := range t.Declared[p] {
				if prev, dup := producer[fi.Path]; dup {
					return nil, fmt.Errorf("wf: %s produced by both %s and %s", fi.Path, d.tasks[prev], t)
				}
				producer[fi.Path] = i
			}
		}
	}
	available := make(map[string]bool, len(initialInputs))
	for _, p := range initialInputs {
		if _, produced := producer[p]; !produced && !available[p] {
			d.initial = append(d.initial, p)
		}
		available[p] = true
	}
	sort.Strings(d.initial)

	// Infer data edges, in the order the tasks were given, and validate
	// that every input has a source. An edge is added once: stamp[p] == mark
	// says p is already a predecessor of the child being wired, and the mark
	// moves on whenever the child changes.
	stamp := make([]int32, len(tasks))
	mark, child := int32(0), int32(-1)
	addDep := func(c, p int32) {
		if c != child {
			mark, child = mark+1, c
			for _, q := range d.nodes[c].preds {
				stamp[q.ID-1] = mark
			}
		}
		if stamp[p] == mark {
			return
		}
		stamp[p] = mark
		d.nodes[c].preds = append(d.nodes[c].preds, d.tasks[p])
		d.nodes[p].succs = append(d.nodes[p].succs, d.tasks[c])
	}
	for _, t := range tasks {
		c := int32(t.ID - 1)
		for _, in := range t.Inputs {
			if available[in] {
				continue
			}
			p, ok := producer[in]
			if !ok {
				return nil, fmt.Errorf("wf: %s consumes %s, which no task produces and is not an initial input", t, in)
			}
			if p == c {
				return nil, fmt.Errorf("wf: %s consumes its own output %s", t, in)
			}
			addDep(c, p)
		}
	}
	for _, e := range edges {
		p, ok := d.pos(e.Parent)
		if !ok {
			return nil, fmt.Errorf("wf: edge references unknown parent %d", e.Parent)
		}
		c, ok := d.pos(e.Child)
		if !ok {
			return nil, fmt.Errorf("wf: edge references unknown child %d", e.Child)
		}
		if p == c {
			return nil, fmt.Errorf("wf: self edge on task %d", e.Parent)
		}
		addDep(c, p)
	}
	for i := range d.nodes {
		d.nodes[i].waiting = len(d.nodes[i].preds)
	}
	if n := len(d.TopoOrder()); n != len(tasks) {
		return nil, fmt.Errorf("wf: workflow graph contains a cycle (%d of %d tasks reachable)", n, len(tasks))
	}
	return d, nil
}

// pos returns the position of the task with the given ID, and false for an
// ID outside 1…n.
func (d *DAG) pos(id int64) (int32, bool) { return int32(id - 1), id >= 1 && id <= int64(len(d.tasks)) }

// All returns every task in ID order.
func (d *DAG) All() []*Task { return d.tasks }

// Predecessors returns the tasks that must complete before t.
func (d *DAG) Predecessors(t *Task) []*Task { return d.node(t).preds }

// Successors returns the tasks that depend on t.
func (d *DAG) Successors(t *Task) []*Task { return d.node(t).succs }

// node returns t's node; an empty one for a task not in the graph.
func (d *DAG) node(t *Task) *node {
	if i, ok := d.pos(t.ID); ok {
		return &d.nodes[i]
	}
	return &node{}
}

// Ready returns tasks whose dependencies are met and that have not been
// released before, in ID order.
func (d *DAG) Ready() []*Task {
	var out []*Task
	for i := range d.nodes {
		if n := &d.nodes[i]; n.state == pending && n.waiting == 0 {
			n.state = released
			out = append(out, d.tasks[i])
		}
	}
	return out
}

// Complete marks t done and returns the tasks that became ready as a
// consequence. Completing a task twice, or one not in the graph, releases
// nothing.
func (d *DAG) Complete(t *Task) []*Task {
	i, ok := d.pos(t.ID)
	if !ok || d.nodes[i].state == complete {
		return nil
	}
	d.nodes[i].state = complete
	d.done++
	var ready []*Task
	for _, s := range d.nodes[i].succs {
		n := &d.nodes[s.ID-1]
		n.waiting--
		if n.waiting == 0 && n.state == pending {
			n.state = released
			ready = append(ready, s)
		}
	}
	slices.SortFunc(ready, func(a, b *Task) int { return cmp.Compare(a.ID, b.ID) })
	return ready
}

// Done reports whether every task has completed.
func (d *DAG) Done() bool { return d.done == len(d.tasks) }

// Sinks returns the declared outputs of tasks with no successors — the
// workflow's final products.
func (d *DAG) Sinks() []string {
	var out []string
	for i, t := range d.tasks {
		if len(d.nodes[i].succs) == 0 {
			out = append(out, t.DeclaredPaths()...)
		}
	}
	sort.Strings(out)
	return out
}

// TopoOrder returns the tasks in a deterministic topological order: Kahn's
// algorithm, always taking the ready task with the smallest ID. Tasks on or
// behind a cycle are left out, which is how NewDAG detects one.
func (d *DAG) TopoOrder() []*Task {
	indeg := make([]int, len(d.nodes))
	var h posHeap
	for i := range d.nodes {
		if indeg[i] = len(d.nodes[i].preds); indeg[i] == 0 {
			h.push(int32(i))
		}
	}
	order := make([]*Task, 0, len(d.tasks))
	for len(h) > 0 {
		i := h.pop()
		order = append(order, d.tasks[i])
		for _, s := range d.nodes[i].succs {
			j := s.ID - 1
			if indeg[j]--; indeg[j] == 0 {
				h.push(int32(j))
			}
		}
	}
	return order
}

// posHeap is a binary min-heap of task positions, and so of task IDs.
type posHeap []int32

func (h *posHeap) push(p int32) {
	*h = append(*h, p)
	q := *h
	for c := len(q) - 1; c > 0; {
		up := (c - 1) / 2
		if q[c] >= q[up] {
			break
		}
		q[c], q[up] = q[up], q[c]
		c = up
	}
}

func (h *posHeap) pop() int32 {
	q := *h
	top, last := q[0], len(q)-1
	q[0] = q[last]
	*h = q[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && q[c+1] < q[c] {
			c++
		}
		if q[c] >= q[p] {
			break
		}
		q[c], q[p] = q[p], q[c]
		p = c
	}
	return top
}

// InitialInputs returns the initially available files, sorted.
func (d *DAG) InitialInputs() []string { return d.initial }
