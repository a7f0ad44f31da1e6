package cuneiform

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"hiway/internal/wf"
)

// maxFunDepth bounds nested function expansion within one statement,
// catching unguarded recursion (defun f(x){ f(x: x) }) that would otherwise
// expand forever. Guarded recursion never nests deeply: a conditional whose
// condition waits on a task yields a hole and stops expanding.
const maxFunDepth = 10_000

// item is one element-or-hole of a value. A hole stands for the unknown
// result of a task invocation that has not completed yet; the statement
// holding it is re-evaluated when that invocation resolves.
type item struct {
	s    string
	hole bool
}

// value is the result of evaluating an expression: a list of strings,
// possibly interrupted by holes.
type value []item

func strVal(ss ...string) value {
	v := make(value, len(ss))
	for i, s := range ss {
		v[i] = item{s: s}
	}
	return v
}

var holeVal = value{{hole: true}}

func (v value) concrete() bool {
	for _, it := range v {
		if it.hole {
			return false
		}
	}
	return true
}

func (v value) strings() []string {
	out := make([]string, 0, len(v))
	for _, it := range v {
		if !it.hole {
			out = append(out, it.s)
		}
	}
	return out
}

// invocation is one memoized task application: a unique combination of task
// definition and concrete argument values. It is issued as a wf.Task exactly
// once; a statement evaluated again finds it here instead of spawning a
// duplicate.
type invocation struct {
	def      *DefTask
	resolved bool
	outputs  [][]string // produced paths per output, in def.Outputs order
	waiters  []int      // statements to re-evaluate once this resolves
}

// slot is the evaluation state of one top-level statement, at the
// statement's index in the program (deftask and defun leave theirs empty).
type slot struct {
	x      Expr // the let's or target's expression
	target bool
	val    value
	// final: the last evaluation met no unresolved invocation and no
	// non-final let, so it read only immutable state; evaluating it again
	// would return val and re-find only invocations that exist. A hole-free
	// val alone is not enough: a function may drop an argument that still
	// has tasks to spawn.
	final   bool
	queued  bool
	readers []int // later statements that read val while it was not final
}

// Driver evaluates a Cuneiform workflow incrementally, implementing
// wf.Driver. It deliberately does not implement wf.StaticDriver: the task
// graph of an iterative workflow is unknowable upfront (§3.4).
type Driver struct {
	name string
	src  string

	tasks map[string]*DefTask
	funs  map[string]*DefFun

	ids         wf.IDSeq // numbers the run's tasks in issue order
	invocations map[string]*invocation
	byTaskID    []*invocation // byTaskID[id-1] is the invocation task id stands for
	unresolved  int           // count of invocations not yet resolved (O(1) Done)
	keyBuf      []byte        // reused by invoke, so re-finding an invocation allocates nothing
	lookups     int           // invocation-table lookups so far (read by the linearity test)

	slots   []slot
	queue   []int // statements to evaluate, ascending
	cur     int   // statement under evaluation
	waiting bool  // cur met something unresolved in this evaluation

	newTasks []*wf.Task
	funDepth int
	parsed   bool
}

// NewDriver creates a driver for the given workflow source.
func NewDriver(name, src string) *Driver {
	return &Driver{
		name:        name,
		src:         src,
		tasks:       make(map[string]*DefTask),
		funs:        make(map[string]*DefFun),
		invocations: make(map[string]*invocation),
	}
}

// Name implements wf.Driver.
func (d *Driver) Name() string { return d.name }

// Parse implements wf.Driver: it parses the source, checks definitions, and
// evaluates every statement once, returning the initially ready tasks.
func (d *Driver) Parse() ([]*wf.Task, error) {
	prog, err := Parse(d.src)
	if err != nil {
		return nil, err
	}
	d.slots = make([]slot, len(prog.Stmts))
	targets := 0
	for i, st := range prog.Stmts {
		switch s := st.(type) {
		case *DefTask:
			if _, dup := d.tasks[s.TaskName]; dup {
				return nil, fmt.Errorf("cuneiform: task %q defined twice", s.TaskName)
			}
			if _, dup := d.funs[s.TaskName]; dup {
				return nil, fmt.Errorf("cuneiform: %q defined as both task and function", s.TaskName)
			}
			d.tasks[s.TaskName] = s
		case *DefFun:
			if _, dup := d.funs[s.FunName]; dup {
				return nil, fmt.Errorf("cuneiform: function %q defined twice", s.FunName)
			}
			if _, dup := d.tasks[s.FunName]; dup {
				return nil, fmt.Errorf("cuneiform: %q defined as both task and function", s.FunName)
			}
			d.funs[s.FunName] = s
		case *Let:
			d.slots[i].x = s.X
			d.enqueue(i)
		case *Target:
			d.slots[i] = slot{x: s.X, target: true}
			d.enqueue(i)
			targets++
		}
	}
	d.parsed = true
	ready, err := d.evaluate()
	if err == nil && targets == 0 {
		err = fmt.Errorf("cuneiform: workflow %q has no target expression", d.name)
	}
	return ready, err
}

// OnTaskComplete implements wf.Driver: it resolves the invocation's output
// futures and re-evaluates the statements that waited on it, returning newly
// discovered tasks. The first result of a task stands: values derived from
// it may already be final.
func (d *Driver) OnTaskComplete(res *wf.TaskResult) ([]*wf.Task, error) {
	if !d.parsed {
		return nil, fmt.Errorf("cuneiform: OnTaskComplete before Parse")
	}
	if id := res.Task.ID; id < 1 || id > int64(len(d.byTaskID)) {
		return nil, fmt.Errorf("cuneiform: result for unknown task %d", id)
	}
	inv := d.byTaskID[res.Task.ID-1]
	if !res.Succeeded() {
		return nil, fmt.Errorf("cuneiform: %s failed (exit %d): %s", res.Task, res.ExitCode, res.Error)
	}
	if inv.resolved {
		return nil, nil
	}
	inv.resolved = true
	d.unresolved--
	inv.outputs = make([][]string, len(inv.def.Outputs))
	for i, o := range inv.def.Outputs {
		fis := res.Outputs[o.Name]
		paths := make([]string, len(fis))
		for j, fi := range fis {
			paths[j] = fi.Path
		}
		inv.outputs[i] = paths
	}
	for _, w := range inv.waiters {
		d.enqueue(w)
	}
	inv.waiters = nil
	return d.evaluate()
}

// Done implements wf.Driver: the workflow is finished when no invocation is
// pending. Every hole stands for a pending invocation and every statement
// that waited on a resolved one has been evaluated since, so all target
// values are concrete then.
func (d *Driver) Done() bool { return d.parsed && d.unresolved == 0 }

// Outputs implements wf.Driver: the concrete strings of all target values.
func (d *Driver) Outputs() []string {
	var out []string
	for i := range d.slots {
		if d.slots[i].target {
			out = append(out, d.slots[i].val.strings()...)
		}
	}
	return out
}

// evaluate evaluates the queued statements in ascending program order,
// collecting freshly issued tasks. A statement not queued can only re-find
// invocations that exist, so this discovers the same new tasks in the same
// order — so with the same task IDs — as evaluating the whole program
// would. Evaluating a let queues its readers, which all come later.
func (d *Driver) evaluate() ([]*wf.Task, error) {
	d.newTasks = nil
	for head := 0; head < len(d.queue); head++ {
		d.cur = d.queue[head]
		s := &d.slots[d.cur]
		s.queued, d.waiting = false, false
		v, err := d.eval(s.x, nil)
		if err != nil {
			return nil, err
		}
		s.val, s.final = v, !d.waiting
		for _, r := range s.readers {
			d.enqueue(r)
		}
		s.readers = s.readers[:0]
	}
	d.queue = d.queue[:0]
	return d.newTasks, nil
}

// enqueue marks statement i for evaluation in this pass.
func (d *Driver) enqueue(i int) {
	s := &d.slots[i]
	if s.queued || s.final {
		return
	}
	s.queued = true
	at, _ := slices.BinarySearch(d.queue, i)
	d.queue = slices.Insert(d.queue, at, i)
}

// await registers the statement under evaluation on the waiters of an
// unresolved invocation or the readers of a non-final let.
func (d *Driver) await(list *[]int) {
	d.waiting = true
	if !slices.Contains(*list, d.cur) {
		*list = append(*list, d.cur)
	}
}

// eval evaluates x. env holds the parameters of the function whose body x
// belongs to; it is nil at the top level, where names are earlier lets.
func (d *Driver) eval(x Expr, env map[string]value) (value, error) {
	switch e := x.(type) {
	case *Str:
		return strVal(e.Val), nil
	case *NilLit:
		return value{}, nil
	case *Ref:
		if env == nil && e.let >= 0 { // top level; an undefined name fails below
			src := &d.slots[e.let]
			if !src.final {
				d.await(&src.readers)
			}
			return src.val, nil
		}
		v, ok := env[e.Ident]
		if !ok {
			return nil, fmt.Errorf("cuneiform: %d: undefined name %q", e.Line, e.Ident)
		}
		return v, nil
	case *Cat:
		var out value
		for _, part := range e.Parts {
			v, err := d.eval(part, env)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	case *If:
		cond, err := d.eval(e.Cond, env)
		if err != nil {
			return nil, err
		}
		if !cond.concrete() {
			return holeVal, nil
		}
		if len(cond) > 0 {
			return d.eval(e.Then, env)
		}
		return d.eval(e.Else, env)
	case *Apply:
		return d.apply(e, env)
	default:
		return nil, fmt.Errorf("cuneiform: unknown expression %T", x)
	}
}

func (d *Driver) apply(e *Apply, env map[string]value) (value, error) {
	if fn, ok := d.funs[e.Callee]; ok {
		return d.applyFun(e, fn, env)
	}
	def, ok := d.tasks[e.Callee]
	if !ok {
		return nil, fmt.Errorf("cuneiform: %d: %q is not a defined task or function", e.Line, e.Callee)
	}
	return d.applyTask(e, def, env)
}

func (d *Driver) applyFun(e *Apply, fn *DefFun, env map[string]value) (value, error) {
	if e.Proj != "" {
		return nil, fmt.Errorf("cuneiform: %d: cannot project output %q of function %q", e.Line, e.Proj, fn.FunName)
	}
	callEnv := make(map[string]value, len(fn.Params))
	given := make(map[string]bool, len(e.Args))
	for _, a := range e.Args {
		v, err := d.eval(a.X, env)
		if err != nil {
			return nil, err
		}
		callEnv[a.Param] = v
		given[a.Param] = true
	}
	for _, p := range fn.Params {
		if !given[p] {
			return nil, fmt.Errorf("cuneiform: %d: call of %q misses argument %q", e.Line, fn.FunName, p)
		}
		delete(given, p)
	}
	for extra := range given {
		return nil, fmt.Errorf("cuneiform: %d: call of %q has unknown argument %q", e.Line, fn.FunName, extra)
	}
	d.funDepth++
	defer func() { d.funDepth-- }()
	if d.funDepth > maxFunDepth {
		return nil, fmt.Errorf("cuneiform: function expansion exceeded depth %d — unguarded recursion in %q?", maxFunDepth, fn.FunName)
	}
	return d.eval(fn.Body, callEnv)
}

func (d *Driver) applyTask(e *Apply, def *DefTask, env map[string]value) (value, error) {
	proj := -1
	for i := range def.Outputs {
		if e.Proj == "" || def.Outputs[i].Name == e.Proj {
			proj = i
			break
		}
	}
	if proj < 0 {
		return nil, fmt.Errorf("cuneiform: %d: task %q has no output %q", e.Line, def.TaskName, e.Proj)
	}

	// Evaluate arguments and match them to declared parameters (the parser
	// rejects an argument given twice).
	args := make([]value, len(def.Params))
	matched, unknown := 0, ""
	for _, a := range e.Args {
		v, err := d.eval(a.X, env)
		if err != nil {
			return nil, err
		}
		if i, ok := def.paramIdx[a.Param]; ok {
			args[i] = v
			matched++
		} else if unknown == "" {
			unknown = a.Param
		}
	}
	if matched < len(def.Params) {
		for _, pd := range def.Params {
			if !slices.ContainsFunc(e.Args, func(a Arg) bool { return a.Param == pd.Name }) {
				return nil, fmt.Errorf("cuneiform: %d: application of %q misses parameter %q", e.Line, def.TaskName, pd.Name)
			}
		}
	}
	if unknown != "" {
		return nil, fmt.Errorf("cuneiform: %d: task %q has no parameter %q", e.Line, def.TaskName, unknown)
	}
	// Any hole blocks enumeration of combinations.
	for _, v := range args {
		if !v.concrete() {
			return holeVal, nil
		}
	}

	// Cartesian product over non-aggregate parameters (Cuneiform's
	// implicit map). Aggregate parameters bind their full list in every
	// combination.
	for _, p := range def.single {
		if len(args[p]) == 0 {
			return value{}, nil // map over the empty list
		}
	}
	var out value
	idx := make([]int, len(def.Params)) // element chosen per non-aggregate parameter
	for {
		inv := d.invoke(def, args, idx)
		if inv.resolved {
			for _, path := range inv.outputs[proj] {
				out = append(out, item{s: path})
			}
		} else {
			// Pending invocations yield a hole — even though the path of
			// a non-aggregate output is known upfront, exposing it would
			// let downstream tasks be issued before their input exists.
			d.await(&inv.waiters)
			out = append(out, item{hole: true})
		}
		// Advance the mixed-radix counter.
		k := len(def.single) - 1
		for ; k >= 0; k-- {
			p := def.single[k]
			idx[p]++
			if idx[p] < len(args[p]) {
				break
			}
			idx[p] = 0
		}
		if k < 0 {
			break
		}
	}
	return out, nil
}

// invoke returns the memoized invocation of def on one combination of
// concrete args, creating and issuing the wf.Task on first encounter. The key
// is the task name and each parameter's values in declaration order, every
// string and every aggregate list prefixed with its length: no value, however
// chosen, makes two applications share a key.
func (d *Driver) invoke(def *DefTask, args []value, idx []int) *invocation {
	key := appendStr(d.keyBuf[:0], def.TaskName)
	for p, pd := range def.Params {
		if !pd.Aggregate {
			key = appendStr(key, args[p][idx[p]].s)
			continue
		}
		key = binary.AppendUvarint(key, uint64(len(args[p])))
		for _, it := range args[p] {
			key = appendStr(key, it.s)
		}
	}
	d.keyBuf = key
	d.lookups++
	if inv, ok := d.invocations[string(key)]; ok {
		return inv
	}
	id := d.ids.Next()
	task := &wf.Task{
		ID:         id,
		Name:       def.TaskName,
		Command:    def.Body,
		CPUSeconds: def.Attrs.CPUSeconds,
		Threads:    max(1, def.Attrs.Threads),
		MemMB:      def.Attrs.MemMB,
		Declared:   make(map[string][]wf.FileInfo),
		Env:        make(map[string]string),
	}
	// Inputs: file parameters only, deduplicated in declaration order.
	seen := map[string]bool{}
	for p, pd := range def.Params {
		var vals []string
		if pd.Aggregate {
			vals = args[p].strings()
		} else {
			vals = []string{args[p][idx[p]].s}
		}
		task.Env[pd.Name] = strings.Join(vals, " ")
		if pd.Value {
			continue
		}
		for _, v := range vals {
			if !seen[v] {
				seen[v] = true
				task.Inputs = append(task.Inputs, v)
			}
		}
	}
	for _, od := range def.Outputs {
		task.OutputParams = append(task.OutputParams, od.Name)
		if od.Aggregate {
			// Produced file count is decided at run time by the task.
			task.Declared[od.Name] = nil
			continue
		}
		size := def.Attrs.OutSizeMB[od.Name]
		if size <= 0 {
			size = 1
		}
		path := wf.OutputPath(d.name, def.TaskName, id, od.Name)
		task.Declared[od.Name] = []wf.FileInfo{{Path: path, SizeMB: size}}
		task.Env[od.Name] = path
	}
	inv := &invocation{def: def}
	d.invocations[string(key)] = inv
	d.byTaskID = append(d.byTaskID, inv) // ids issues 1, 2, …: inv lands at id-1
	d.unresolved++
	d.newTasks = append(d.newTasks, task)
	return inv
}

// appendStr appends s behind its length.
func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}
