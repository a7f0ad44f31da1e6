package wf

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Template is what no run of a static task graph changes — who depends on
// whom, which inputs are initial, a topological order — as task positions
// (task k sits at k−1). It holds no task and no path, so any number of runs,
// on any goroutines, share one: Instance binds it to a run's own tasks.
type Template struct {
	preds, succs rows    // deduplicated, in insertion order
	initial      []int32 // the files no task produces, as positions in the build's initial inputs, deduplicated, by path
	topo         []int32 // Kahn's order, taking the smallest ready position first
}

// rows is an adjacency list in compressed rows: row i is at[off[i]:off[i+1]].
type rows struct{ off, at []int32 }

func (r *rows) row(i int32) []int32 { return r.at[r.off[i]:r.off[i+1]] }

// DAG is one run of a Template: its tasks by position, and their progress.
// A task becomes ready when every input file exists (initially staged or
// produced by a predecessor) and every explicit control dependency has
// completed. Static schedulers (HEFT, round-robin) read its structure.
type DAG struct {
	tmpl   *Template
	tasks  []*Task
	inputs []string // the initial inputs as given; tmpl.initial indexes them
	nodes  []node   // nodes[i] is the progress of tasks[i]
	done   int      // completed tasks

	preds, succs []*Task // Predecessors' and Successors' rows as tasks, made on first use
}

// node is one task's progress through a run.
type node struct {
	waiting int32 // unmet dependencies
	state   nodeState
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

// NewDAG builds a template over the tasks and starts a run of it over the
// same tasks. initialInputs are files that exist before execution starts.
// Explicit edges supplement the data dependencies inferred from matching
// output→input paths. Construction fails on task IDs outside 1…len(tasks)
// or repeated, duplicate producers, unknown edge endpoints, inputs nobody
// provides, or cycles.
func NewDAG(tasks []*Task, initialInputs []string, edges []Edge) (*DAG, error) {
	n := int32(len(tasks))
	byPos := make([]*Task, n)
	pos := func(id int64) (int32, bool) { return int32(id - 1), id >= 1 && id <= int64(n) }
	producer := make(map[string]int32, int(n)+len(initialInputs)) // −1: available from the start
	m := len(edges)
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		i, ok := pos(t.ID)
		if !ok {
			return nil, fmt.Errorf("wf: task ID %d outside 1..%d", t.ID, n)
		}
		if byPos[i] != nil {
			return nil, fmt.Errorf("wf: duplicate task ID %d", t.ID)
		}
		byPos[i] = t
		m += len(t.Inputs)
		for _, p := range t.OutputParams {
			for _, fi := range t.Declared[p] {
				if prev, dup := producer[fi.Path]; dup {
					return nil, fmt.Errorf("wf: %s produced by both %s and %s", fi.Path, byPos[prev], t)
				}
				producer[fi.Path] = i
			}
		}
	}
	tm := &Template{}
	for k, p := range initialInputs {
		if _, seen := producer[p]; !seen {
			tm.initial = append(tm.initial, int32(k))
		}
		producer[p] = -1
	}
	slices.SortFunc(tm.initial, func(a, b int32) int { return strings.Compare(initialInputs[a], initialInputs[b]) })

	// Infer data edges, in the order the tasks were given, and validate that
	// every input has a source; then the explicit edges.
	type edge struct{ c, p int32 }
	raw := make([]edge, 0, m)
	for _, t := range tasks {
		c := int32(t.ID - 1)
		for _, in := range t.Inputs {
			p, ok := producer[in]
			if !ok {
				return nil, fmt.Errorf("wf: %s consumes %s, which no task produces and is not an initial input", t, in)
			}
			if p < 0 {
				continue
			}
			if p == c {
				return nil, fmt.Errorf("wf: %s consumes its own output %s", t, in)
			}
			raw = append(raw, edge{c, p})
		}
	}
	for _, e := range edges {
		p, ok := pos(e.Parent)
		if !ok {
			return nil, fmt.Errorf("wf: edge references unknown parent %d", e.Parent)
		}
		c, ok := pos(e.Child)
		if !ok {
			return nil, fmt.Errorf("wf: edge references unknown child %d", e.Child)
		}
		if p == c {
			return nil, fmt.Errorf("wf: self edge on task %d", e.Parent)
		}
		raw = append(raw, edge{c, p})
	}

	// An edge counts once: bucket the edges by child, in order, and drop a
	// parent the child already has; then bucket what is left by parent.
	bucket := func(key func(edge) int32) rows {
		r := rows{off: make([]int32, n+1), at: make([]int32, len(raw))}
		for _, e := range raw {
			r.off[key(e)+1]++
		}
		for i := int32(1); i <= n; i++ {
			r.off[i] += r.off[i-1]
		}
		for k, e := range raw {
			r.at[r.off[key(e)]] = int32(k)
			r.off[key(e)]++
		}
		copy(r.off[1:], r.off[:n])
		r.off[0] = 0
		return r
	}
	tm.preds = bucket(func(e edge) int32 { return e.c })
	seen, w := make([]int32, n), int32(0)
	for c := int32(0); c < n; c++ {
		lo, hi := tm.preds.off[c], tm.preds.off[c+1]
		tm.preds.off[c] = w
		for _, k := range tm.preds.at[lo:hi] {
			if p := raw[k].p; seen[p] == c+1 {
				raw[k].p = -1
			} else {
				seen[p], tm.preds.at[w] = c+1, p
				w++
			}
		}
	}
	tm.preds.off[n], tm.preds.at = w, tm.preds.at[:w]
	raw = slices.DeleteFunc(raw, func(e edge) bool { return e.p < 0 })
	tm.succs = bucket(func(e edge) int32 { return e.p })
	for k, e := range tm.succs.at {
		tm.succs.at[k] = raw[e].c
	}

	// Kahn's algorithm: a task on or behind a cycle is never reached.
	indeg, h := seen, posHeap{}
	tm.topo = make([]int32, 0, n)
	for i := int32(0); i < n; i++ {
		if indeg[i] = tm.preds.off[i+1] - tm.preds.off[i]; indeg[i] == 0 {
			h.push(i)
		}
	}
	for len(h) > 0 {
		i := h.pop()
		tm.topo = append(tm.topo, i)
		for _, s := range tm.succs.row(i) {
			if indeg[s]--; indeg[s] == 0 {
				h.push(s)
			}
		}
	}
	if len(tm.topo) != int(n) {
		return nil, fmt.Errorf("wf: workflow graph contains a cycle (%d of %d tasks reachable)", len(tm.topo), n)
	}
	return tm.Instance(byPos, initialInputs), nil
}

// Instance starts a run of the template over its own tasks, tasks[i] the one
// with ID i+1, and the build's initial inputs: the build's own, or copies in
// which every path is renamed one to one, so the dependencies stand.
func (t *Template) Instance(tasks []*Task, initialInputs []string) *DAG {
	d := &DAG{tmpl: t, tasks: tasks, inputs: initialInputs, nodes: make([]node, len(tasks))}
	for i := range d.nodes {
		d.nodes[i].waiting = t.preds.off[i+1] - t.preds.off[i]
	}
	return d
}

// Template returns the template the run is of.
func (d *DAG) Template() *Template { return d.tmpl }

// pos returns the position of the task with the given ID, and false for an
// ID outside 1…n.
func (d *DAG) pos(id int64) (int32, bool) { return int32(id - 1), id >= 1 && id <= int64(len(d.tasks)) }

// All returns every task in ID order.
func (d *DAG) All() []*Task { return d.tasks }

// Predecessors returns the tasks that must complete before t.
func (d *DAG) Predecessors(t *Task) []*Task { return d.linked(t, &d.tmpl.preds, &d.preds) }

// Successors returns the tasks that depend on t.
func (d *DAG) Successors(t *Task) []*Task { return d.linked(t, &d.tmpl.succs, &d.succs) }

// linked returns t's row of r as tasks, from *links, every row of r once
// made. A task not in the graph has none.
func (d *DAG) linked(t *Task, r *rows, links *[]*Task) []*Task {
	i, ok := d.pos(t.ID)
	if !ok {
		return nil
	}
	if *links == nil {
		*links = pick(d.tasks, r.at)
	}
	return (*links)[r.off[i]:r.off[i+1]:r.off[i+1]]
}

// pick returns the elements of xs at the positions.
func pick[T any](xs []T, positions []int32) []T {
	out := make([]T, len(positions))
	for k, i := range positions {
		out[k] = xs[i]
	}
	return out
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
	for _, s := range d.tmpl.succs.row(i) {
		n := &d.nodes[s]
		n.waiting--
		if n.waiting == 0 && n.state == pending {
			n.state = released
			ready = append(ready, d.tasks[s])
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
		if len(d.tmpl.succs.row(int32(i))) == 0 {
			out = append(out, t.DeclaredPaths()...)
		}
	}
	sort.Strings(out)
	return out
}

// TopoOrder returns the tasks in a deterministic topological order: Kahn's
// algorithm, always taking the ready task with the smallest ID.
func (d *DAG) TopoOrder() []*Task { return pick(d.tasks, d.tmpl.topo) }

// posHeap is a binary min-heap of task positions, and so of task IDs.
type posHeap []int32

func (h *posHeap) push(p int32) {
	*h = append(*h, p)
	for q, c := *h, len(*h)-1; c > 0 && q[c] < q[(c-1)/2]; c = (c - 1) / 2 {
		q[c], q[(c-1)/2] = q[(c-1)/2], q[c]
	}
}

func (h *posHeap) pop() int32 {
	q := *h
	top, last := q[0], len(q)-1
	q[0], *h = q[last], q[:last]
	for p, c := 0, 1; c < last; p, c = c, 2*c+1 {
		if c+1 < last && q[c+1] < q[c] {
			c++
		}
		if q[c] >= q[p] {
			break
		}
		q[c], q[p] = q[p], q[c]
	}
	return top
}

// InitialInputs returns the initially available files no task produces,
// sorted.
func (d *DAG) InitialInputs() []string { return pick(d.inputs, d.tmpl.initial) }
