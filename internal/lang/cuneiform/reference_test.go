package cuneiform

import (
	"fmt"
	"sort"
	"strings"

	"hiway/internal/wf"
)

// This file keeps the evaluator the driver shipped with before it became
// incremental — every completion re-runs the whole program — as the reference
// TestDifferentialAgainstFullPass holds the production driver to. It shares
// the AST and the value type with eval.go and nothing else. Its invocation key
// joins values with raw \x00/\x01/\x02, so programs fed to both must keep
// those bytes out of string literals and output paths.

// refInvocation is one memoized task application, issued as a wf.Task exactly
// once; re-evaluation passes find it here instead of spawning a duplicate.
type refInvocation struct {
	key      string
	task     *wf.Task
	def      *DefTask
	resolved bool
	outputs  map[string][]string // output param → produced paths
}

// refDriver is the full-pass evaluator.
type refDriver struct {
	name string
	src  string

	prog  *Program
	tasks map[string]*DefTask
	funs  map[string]*DefFun

	ids         wf.IDSeq
	invocations map[string]*refInvocation
	byTaskID    map[int64]*refInvocation
	unresolved  int // count of invocations not yet resolved (O(1) Done)

	newTasks []*wf.Task
	targets  []value
	funDepth int
	parsed   bool
}

func newRefDriver(name, src string) *refDriver {
	return &refDriver{
		name:        name,
		src:         src,
		tasks:       make(map[string]*DefTask),
		funs:        make(map[string]*DefFun),
		invocations: make(map[string]*refInvocation),
		byTaskID:    make(map[int64]*refInvocation),
	}
}

// Parse implements wf.Driver: it parses the source, checks definitions, and
// runs the first evaluation pass, returning the initially ready tasks.
func (d *refDriver) Parse() ([]*wf.Task, error) {
	prog, err := Parse(d.src)
	if err != nil {
		return nil, err
	}
	d.prog = prog
	for _, st := range prog.Stmts {
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
		}
	}
	d.parsed = true
	return d.evaluate()
}

// OnTaskComplete implements wf.Driver: it resolves the refInvocation's output
// futures and re-evaluates the program, returning newly discovered tasks.
func (d *refDriver) OnTaskComplete(res *wf.TaskResult) ([]*wf.Task, error) {
	if !d.parsed {
		return nil, fmt.Errorf("cuneiform: OnTaskComplete before Parse")
	}
	inv, ok := d.byTaskID[res.Task.ID]
	if !ok {
		return nil, fmt.Errorf("cuneiform: result for unknown task %d", res.Task.ID)
	}
	if !res.Succeeded() {
		return nil, fmt.Errorf("cuneiform: %s failed (exit %d): %s", res.Task, res.ExitCode, res.Error)
	}
	if !inv.resolved {
		d.unresolved--
	}
	inv.resolved = true
	inv.outputs = make(map[string][]string, len(inv.def.Outputs))
	for _, o := range inv.def.Outputs {
		fis := res.Outputs[o.Name]
		paths := make([]string, len(fis))
		for i, fi := range fis {
			paths[i] = fi.Path
		}
		inv.outputs[o.Name] = paths
	}
	return d.evaluate()
}

// Done implements wf.Driver: the workflow is finished when no refInvocation is
// pending and every target value is concrete. The pending count is tracked
// incrementally so this is O(targets), not O(invocations) — it runs after
// every task completion.
func (d *refDriver) Done() bool {
	if !d.parsed || d.unresolved > 0 {
		return false
	}
	for _, t := range d.targets {
		if !t.concrete() {
			return false
		}
	}
	return true
}

// Outputs implements wf.Driver: the concrete strings of all target values.
func (d *refDriver) Outputs() []string {
	var out []string
	for _, t := range d.targets {
		out = append(out, t.strings()...)
	}
	return out
}

// Pending returns the number of unresolved invocations (for diagnostics).
func (d *refDriver) Pending() int {
	n := 0
	for _, inv := range d.invocations {
		if !inv.resolved {
			n++
		}
	}
	return n
}

// evaluate runs one full evaluation pass over the program, collecting
// freshly issued tasks.
func (d *refDriver) evaluate() ([]*wf.Task, error) {
	d.newTasks = nil
	d.targets = nil
	d.funDepth = 0
	env := make(map[string]value)
	for _, st := range d.prog.Stmts {
		switch s := st.(type) {
		case *Let:
			v, err := d.eval(s.X, env)
			if err != nil {
				return nil, err
			}
			env[s.Ident] = v
		case *Target:
			v, err := d.eval(s.X, env)
			if err != nil {
				return nil, err
			}
			d.targets = append(d.targets, v)
		}
	}
	if len(d.targets) == 0 {
		return nil, fmt.Errorf("cuneiform: workflow %q has no target expression", d.name)
	}
	return d.newTasks, nil
}

func (d *refDriver) eval(x Expr, env map[string]value) (value, error) {
	switch e := x.(type) {
	case *Str:
		return strVal(e.Val), nil
	case *NilLit:
		return value{}, nil
	case *Ref:
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

func (d *refDriver) apply(e *Apply, env map[string]value) (value, error) {
	if fn, ok := d.funs[e.Callee]; ok {
		return d.applyFun(e, fn, env)
	}
	def, ok := d.tasks[e.Callee]
	if !ok {
		return nil, fmt.Errorf("cuneiform: %d: %q is not a defined task or function", e.Line, e.Callee)
	}
	return d.applyTask(e, def, env)
}

func (d *refDriver) applyFun(e *Apply, fn *DefFun, env map[string]value) (value, error) {
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

func (d *refDriver) applyTask(e *Apply, def *DefTask, env map[string]value) (value, error) {
	proj := e.Proj
	if proj == "" {
		proj = def.Outputs[0].Name
	}
	var projDecl *ParamDecl
	for i := range def.Outputs {
		if def.Outputs[i].Name == proj {
			projDecl = &def.Outputs[i]
		}
	}
	if projDecl == nil {
		return nil, fmt.Errorf("cuneiform: %d: task %q has no output %q", e.Line, def.TaskName, proj)
	}

	// Evaluate arguments and match them to declared parameters.
	args := make(map[string]value, len(e.Args))
	for _, a := range e.Args {
		v, err := d.eval(a.X, env)
		if err != nil {
			return nil, err
		}
		args[a.Param] = v
	}
	decl := make(map[string]ParamDecl, len(def.Params))
	for _, pd := range def.Params {
		decl[pd.Name] = pd
		if _, ok := args[pd.Name]; !ok {
			return nil, fmt.Errorf("cuneiform: %d: application of %q misses parameter %q", e.Line, def.TaskName, pd.Name)
		}
	}
	for name := range args {
		if _, ok := decl[name]; !ok {
			return nil, fmt.Errorf("cuneiform: %d: task %q has no parameter %q", e.Line, def.TaskName, name)
		}
	}
	// Any hole blocks enumeration of combinations.
	for _, pd := range def.Params {
		if !args[pd.Name].concrete() {
			return holeVal, nil
		}
	}

	// Cartesian product over non-aggregate parameters (Cuneiform's
	// implicit map). Aggregate parameters bind their full list in every
	// combination.
	var single []ParamDecl
	for _, pd := range def.Params {
		if !pd.Aggregate {
			single = append(single, pd)
		}
	}
	counts := make([]int, len(single))
	for i, pd := range single {
		counts[i] = len(args[pd.Name])
		if counts[i] == 0 {
			return value{}, nil // map over the empty list
		}
	}

	var out value
	idx := make([]int, len(single))
	for {
		binding := make(map[string][]string, len(def.Params))
		for i, pd := range single {
			binding[pd.Name] = []string{args[pd.Name][idx[i]].s}
		}
		for _, pd := range def.Params {
			if pd.Aggregate {
				binding[pd.Name] = args[pd.Name].strings()
			}
		}
		inv := d.invoke(def, binding)
		if inv.resolved {
			out = append(out, strVal(inv.outputs[proj]...)...)
		} else {
			// Pending invocations yield a hole — even though the path of
			// a non-aggregate output is known upfront, exposing it would
			// let downstream tasks be issued before their input exists.
			out = append(out, item{hole: true})
		}
		// Advance the mixed-radix counter.
		k := len(idx) - 1
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] < counts[k] {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			break
		}
	}
	return out, nil
}

// invoke returns the memoized refInvocation for (def, binding), creating and
// issuing the wf.Task on first encounter.
func (d *refDriver) invoke(def *DefTask, binding map[string][]string) *refInvocation {
	key := refInvocationKey(def.TaskName, binding)
	if inv, ok := d.invocations[key]; ok {
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
	for _, pd := range def.Params {
		vals := binding[pd.Name]
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
	inv := &refInvocation{key: key, task: task, def: def}
	d.invocations[key] = inv
	d.byTaskID[id] = inv
	d.unresolved++
	d.newTasks = append(d.newTasks, task)
	return inv
}

// refInvocationKey builds a canonical string for memoizing an application.
func refInvocationKey(taskName string, binding map[string][]string) string {
	params := make([]string, 0, len(binding))
	for p := range binding {
		params = append(params, p)
	}
	sort.Strings(params)
	var sb strings.Builder
	sb.WriteString(taskName)
	for _, p := range params {
		sb.WriteString("\x00")
		sb.WriteString(p)
		sb.WriteString("\x01")
		for i, v := range binding[p] {
			if i > 0 {
				sb.WriteString("\x02")
			}
			sb.WriteString(v)
		}
	}
	return sb.String()
}
