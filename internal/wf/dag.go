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
type DAG struct {
	tasks   []*Task
	nodes   []node          // nodes[i] is the state of tasks[i]
	index   map[int64]int32 // task ID → position in tasks
	initial []string        // sorted initial inputs no task produces
	done    int             // completed tasks
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
// inferred from matching output→input paths. Construction fails on
// duplicate producers, unknown edge endpoints, inputs nobody provides, or
// cycles.
func NewDAG(tasks []*Task, initialInputs []string, edges []Edge) (*DAG, error) {
	d := &DAG{
		tasks: append([]*Task(nil), tasks...),
		nodes: make([]node, len(tasks)),
		index: make(map[int64]int32, len(tasks)),
	}
	producer := make(map[string]int32, len(tasks))
	for i, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if _, dup := d.index[t.ID]; dup {
			return nil, fmt.Errorf("wf: duplicate task ID %d", t.ID)
		}
		d.index[t.ID] = int32(i)
		for _, p := range t.OutputParams {
			for _, fi := range t.Declared[p] {
				if prev, dup := producer[fi.Path]; dup {
					return nil, fmt.Errorf("wf: %s produced by both %s and %s", fi.Path, tasks[prev], t)
				}
				producer[fi.Path] = int32(i)
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

	// Infer data edges and validate that every input has a source. An edge
	// is added once: stamp[p] == mark says p is already a predecessor of the
	// child being wired, and the mark moves on whenever the child changes.
	stamp := make([]int32, len(tasks))
	mark, child := int32(0), int32(-1)
	addDep := func(c, p int32) {
		if c != child {
			mark, child = mark+1, c
			for _, q := range d.nodes[c].preds {
				stamp[d.index[q.ID]] = mark
			}
		}
		if stamp[p] == mark {
			return
		}
		stamp[p] = mark
		d.nodes[c].preds = append(d.nodes[c].preds, tasks[p])
		d.nodes[p].succs = append(d.nodes[p].succs, tasks[c])
	}
	for i, t := range tasks {
		for _, in := range t.Inputs {
			if available[in] {
				continue
			}
			p, ok := producer[in]
			if !ok {
				return nil, fmt.Errorf("wf: %s consumes %s, which no task produces and is not an initial input", t, in)
			}
			if p == int32(i) {
				return nil, fmt.Errorf("wf: %s consumes its own output %s", t, in)
			}
			addDep(int32(i), p)
		}
	}
	for _, e := range edges {
		p, ok := d.index[e.Parent]
		if !ok {
			return nil, fmt.Errorf("wf: edge references unknown parent %d", e.Parent)
		}
		c, ok := d.index[e.Child]
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

// All returns every task in insertion order.
func (d *DAG) All() []*Task { return d.tasks }

// Predecessors returns the tasks that must complete before t.
func (d *DAG) Predecessors(t *Task) []*Task { return d.node(t).preds }

// Successors returns the tasks that depend on t.
func (d *DAG) Successors(t *Task) []*Task { return d.node(t).succs }

// node returns t's node; an empty one for a task not in the graph.
func (d *DAG) node(t *Task) *node {
	if i, ok := d.index[t.ID]; ok {
		return &d.nodes[i]
	}
	return &node{}
}

// Ready returns tasks whose dependencies are met and that have not been
// released before, in deterministic (ID) order.
func (d *DAG) Ready() []*Task {
	var out []*Task
	for i := range d.nodes {
		if n := &d.nodes[i]; n.state == pending && n.waiting == 0 {
			n.state = released
			out = append(out, d.tasks[i])
		}
	}
	sortByID(out)
	return out
}

// Complete marks t done and returns the tasks that became ready as a
// consequence. Completing a task twice, or one not in the graph, releases
// nothing.
func (d *DAG) Complete(t *Task) []*Task {
	i, ok := d.index[t.ID]
	if !ok || d.nodes[i].state == complete {
		return nil
	}
	d.nodes[i].state = complete
	d.done++
	var ready []*Task
	for _, s := range d.nodes[i].succs {
		n := &d.nodes[d.index[s.ID]]
		n.waiting--
		if n.waiting == 0 && n.state == pending {
			n.state = released
			ready = append(ready, s)
		}
	}
	sortByID(ready)
	return ready
}

func sortByID(tasks []*Task) {
	slices.SortFunc(tasks, func(a, b *Task) int { return cmp.Compare(a.ID, b.ID) })
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
	h := idHeap{tasks: d.tasks}
	for i := range d.nodes {
		if indeg[i] = len(d.nodes[i].preds); indeg[i] == 0 {
			h.push(int32(i))
		}
	}
	order := make([]*Task, 0, len(d.tasks))
	for len(h.pos) > 0 {
		i := h.pop()
		order = append(order, d.tasks[i])
		for _, s := range d.nodes[i].succs {
			j := d.index[s.ID]
			if indeg[j]--; indeg[j] == 0 {
				h.push(j)
			}
		}
	}
	return order
}

// idHeap is a binary min-heap of task positions, ordered by task ID.
type idHeap struct {
	tasks []*Task
	pos   []int32
}

func (h *idHeap) less(a, b int) bool { return h.tasks[h.pos[a]].ID < h.tasks[h.pos[b]].ID }

func (h *idHeap) push(p int32) {
	h.pos = append(h.pos, p)
	for c := len(h.pos) - 1; c > 0; {
		up := (c - 1) / 2
		if !h.less(c, up) {
			break
		}
		h.pos[c], h.pos[up] = h.pos[up], h.pos[c]
		c = up
	}
}

func (h *idHeap) pop() int32 {
	top, last := h.pos[0], len(h.pos)-1
	h.pos[0] = h.pos[last]
	h.pos = h.pos[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && h.less(c+1, c) {
			c++
		}
		if !h.less(c, p) {
			break
		}
		h.pos[c], h.pos[p] = h.pos[p], h.pos[c]
		p = c
	}
	return top
}

// InitialInputs returns the initially available files, sorted.
func (d *DAG) InitialInputs() []string { return d.initial }
