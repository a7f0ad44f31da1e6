// Package wf defines Hi-WAY's black-box workflow model: tasks that consume
// and produce opaque files, and the iterative Driver interface through which
// language frontends (Cuneiform, DAX, Galaxy, provenance traces) feed tasks
// to the execution engine as they become ready.
//
// Tasks are black boxes (§1 of the paper): the engine never inspects data,
// it only forwards files according to the workflow structure. Each task
// carries a resource profile (CPU core-seconds, threads, memory, output
// volumes) that the simulated substrate uses in place of running the real
// tool; the local executor ignores the profile and runs Command instead.
package wf

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// IDSeq numbers the tasks of one run 1, 2, 3, … in the order they are
// built; the zero value is ready to use. Each driver owns one, so a run's
// task IDs — and the output paths and provenance derived from them — are a
// function of the run alone, not of what else the process parsed.
type IDSeq struct{ last int64 }

// Next returns the run's next task ID.
func (s *IDSeq) Next() int64 {
	s.last++
	return s.last
}

// ReserveIDs returns 1, the first ID of a block of n: task IDs are per run,
// so there is nothing to reserve. Only bench/sim.go still calls it; the two
// go together.
func ReserveIDs(n int64) int64 { return 1 }

// SafeName maps a workflow name to a path-safe directory component: every
// rune outside [A-Za-z0-9_-] becomes '_'. Every frontend names its output
// directories with it.
func SafeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// OutputPath is the path of a task's declared output in the layout the
// Cuneiform and CWL frontends share, <SafeName(workflow)>/<task>_<id>/<param>,
// so one workflow written in either language leaves comparable provenance.
func OutputPath(workflow, task string, id int64, param string) string {
	return fmt.Sprintf("%s/%s_%d/%s", SafeName(workflow), task, id, param)
}

// FileInfo names a produced or consumed file and its size.
type FileInfo struct {
	Path   string
	SizeMB float64
}

// Task is one black-box invocation of an external tool.
type Task struct {
	ID   int64
	Name string // signature: the tool invoked; adaptive scheduling keys on it
	// Command is the shell command the task stands for. The simulator
	// records it in provenance; the local executor actually runs it.
	Command string

	Inputs []string // paths consumed (must exist before the task is ready)

	// OutputParams lists declared output parameter names in order;
	// Declared maps each to its default produced files. Iterative
	// languages may produce a different number of files for aggregate
	// outputs at run time (see Outcome).
	OutputParams []string
	Declared     map[string][]FileInfo

	// Resource profile for simulated execution.
	CPUSeconds float64 // reference core-seconds of compute
	Threads    int     // maximum useful parallelism
	MemMB      int     // memory demand (drives container sizing)

	// Env carries named parameter bindings (parameter → space-joined
	// values, output parameter → produced paths). The local executor
	// exports them to the task's process environment.
	Env map[string]string

	// Meta carries frontend- or workload-specific annotations (e.g. the
	// iteration counter of a k-means convergence task).
	Meta map[string]string
}

// DeclaredOutputs returns all declared output files flattened in parameter
// order.
func (t *Task) DeclaredOutputs() []FileInfo {
	var out []FileInfo
	for _, p := range t.OutputParams {
		out = append(out, t.Declared[p]...)
	}
	return out
}

// DeclaredPaths returns the paths of DeclaredOutputs.
func (t *Task) DeclaredPaths() []string {
	fis := t.DeclaredOutputs()
	paths := make([]string, len(fis))
	for i, fi := range fis {
		paths[i] = fi.Path
	}
	return paths
}

// Validate reports structural problems with the task.
func (t *Task) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("wf: task %d has no name", t.ID)
	}
	if t.CPUSeconds < 0 {
		return fmt.Errorf("wf: task %s has negative CPU time", t.Name)
	}
	seen := map[string]bool{}
	for _, in := range t.Inputs {
		if in == "" {
			return fmt.Errorf("wf: task %s has an empty input path", t.Name)
		}
		seen[in] = true
	}
	for _, p := range t.OutputParams {
		for _, fi := range t.Declared[p] {
			if fi.Path == "" {
				return fmt.Errorf("wf: task %s output param %s has an empty path", t.Name, p)
			}
			if seen[fi.Path] {
				return fmt.Errorf("wf: task %s produces its own input %s", t.Name, fi.Path)
			}
		}
	}
	return nil
}

func (t *Task) String() string {
	return fmt.Sprintf("task %d (%s)", t.ID, t.Name)
}

// Outcome is what executing a task yields, before stage-out. The simulated
// executor derives it from a Behavior hook (or the declared outputs); the
// local executor derives it from the real process.
type Outcome struct {
	ExitCode int
	Error    string
	// Outputs maps output parameter → produced files. Aggregate (list)
	// outputs may hold zero or many files; this is how conditional and
	// convergence logic escapes a black-box task.
	Outputs map[string][]FileInfo
}

// DefaultOutcome returns a successful outcome producing exactly the
// declared outputs. Its Outputs is the task's Declared map itself, so it is
// read-only: a Behavior that changes what a task produces clones it first.
func DefaultOutcome(t *Task) Outcome {
	return Outcome{Outputs: t.Declared}
}

// Behavior lets a workload customize what a simulated task produces —
// the stand-in for the real tool's observable behaviour.
type Behavior func(t *Task) Outcome

// TaskResult is the completed execution record handed back to the driver
// and the provenance manager.
type TaskResult struct {
	Task *Task
	Node string

	// Attempt is the zero-based retry index of the execution that produced
	// this result; Speculative marks results from a speculative duplicate
	// launched by the fault-tolerance layer.
	Attempt     int
	Speculative bool

	Start, End  float64 // virtual (or wall-clock) seconds
	StageInSec  float64
	ExecSec     float64
	StageOutSec float64

	ExitCode int
	Error    string
	Outputs  map[string][]FileInfo // read-only: may be the task's Declared map

	Stdout, Stderr string // captured by the local executor
}

// OutputFiles returns all produced files flattened in parameter order.
func (r *TaskResult) OutputFiles() []FileInfo {
	// Include parameters the task did not declare (defensive).
	var extras []string
	n := 0
	for p, fis := range r.Outputs {
		n += len(fis)
		if !slices.Contains(r.Task.OutputParams, p) {
			extras = append(extras, p)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]FileInfo, 0, n)
	for _, p := range r.Task.OutputParams {
		out = append(out, r.Outputs[p]...)
	}
	sort.Strings(extras)
	for _, p := range extras {
		out = append(out, r.Outputs[p]...)
	}
	return out
}

// Succeeded reports whether the task exited cleanly.
func (r *TaskResult) Succeeded() bool { return r.ExitCode == 0 && r.Error == "" }

// Driver is the language-independent interface between a workflow frontend
// and the execution engine (§3.2, §3.3). Parse returns the initially ready
// tasks; OnTaskComplete registers produced data and returns tasks that
// became ready — for iterative languages these may be entirely new tasks
// discovered by evaluating the result.
type Driver interface {
	// Name identifies the workflow (used in provenance).
	Name() string
	// Parse analyses the workflow text and returns initially ready tasks.
	Parse() ([]*Task, error)
	// OnTaskComplete consumes a result and returns newly ready tasks.
	OnTaskComplete(res *TaskResult) ([]*Task, error)
	// Done reports whether the workflow has produced everything it will.
	Done() bool
	// Outputs returns the workflow's final output paths (valid once Done).
	Outputs() []string
}

// StaticDriver is implemented by frontends of non-iterative languages whose
// complete task graph is known after parsing. Static scheduling policies
// (round-robin, HEFT) require it; Cuneiform deliberately does not implement
// it (§3.4: static schedulers are incompatible with iterative workflows).
type StaticDriver interface {
	Driver
	// Graph exposes the full DAG after Parse.
	Graph() *DAG
}
