package wf

import (
	"fmt"
	"sort"
)

// DAG tracks readiness for a static task graph: a task becomes ready when
// every input file exists (initially staged or produced by a predecessor)
// and every explicit control dependency has completed. It also exposes the
// dependency structure that static schedulers (HEFT, round-robin) consume.
type DAG struct {
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

func (d *DAG) checkAcyclic() error {
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
func (d *DAG) All() []*Task { return d.tasks }

// Predecessors returns the tasks that must complete before t.
func (d *DAG) Predecessors(t *Task) []*Task { return d.preds[t.ID] }

// Successors returns the tasks that depend on t.
func (d *DAG) Successors(t *Task) []*Task { return d.succs[t.ID] }

// Ready returns tasks whose dependencies are met and that have not been
// released before, in deterministic (ID) order.
func (d *DAG) Ready() []*Task {
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
func (d *DAG) Complete(t *Task, produced []FileInfo) []*Task {
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
func (d *DAG) Done() bool {
	return len(d.completed) == len(d.tasks)
}

// Sinks returns the declared outputs of tasks with no successors — the
// workflow's final products.
func (d *DAG) Sinks() []string {
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
func (d *DAG) TopoOrder() []*Task {
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
func (d *DAG) InitialInputs() []string {
	var out []string
	for p := range d.available {
		if _, produced := d.producer[p]; !produced {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
