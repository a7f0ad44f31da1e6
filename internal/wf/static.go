package wf

import "fmt"

// StaticBase implements Driver and StaticDriver on top of a Build function
// that produces the complete task graph. The DAX, Galaxy and trace
// frontends embed it; only the parsing differs between them.
type StaticBase struct {
	WFName string
	// Build parses the workflow text into tasks, initially available
	// input paths, and explicit control edges.
	Build func() ([]*Task, []string, []Edge, error)

	dag *DAG
}

// Bound returns a driver over a run already bound to its tasks, such as a
// Template's Instance: Parse builds nothing.
func Bound(name string, d *DAG) *StaticBase { return &StaticBase{WFName: name, dag: d} }

// Name implements Driver.
func (s *StaticBase) Name() string { return s.WFName }

// Parse implements Driver by building the full DAG, unless the driver is
// Bound, and returning the tasks with no unmet dependencies.
func (s *StaticBase) Parse() ([]*Task, error) {
	if s.Build != nil {
		tasks, inputs, edges, err := s.Build()
		if err == nil {
			s.dag, err = NewDAG(tasks, inputs, edges)
		}
		if err != nil {
			return nil, err
		}
	} else if s.dag == nil {
		return nil, fmt.Errorf("wf: static driver %q has no Build function", s.WFName)
	}
	return s.dag.Ready(), nil
}

// OnTaskComplete implements Driver.
func (s *StaticBase) OnTaskComplete(res *TaskResult) ([]*Task, error) {
	if s.dag == nil {
		return nil, fmt.Errorf("wf: OnTaskComplete before Parse")
	}
	if !res.Succeeded() {
		return nil, fmt.Errorf("wf: %s failed (exit %d): %s", res.Task, res.ExitCode, res.Error)
	}
	return s.dag.Complete(res.Task), nil
}

// Done implements Driver.
func (s *StaticBase) Done() bool { return s.dag != nil && s.dag.Done() }

// Outputs implements Driver.
func (s *StaticBase) Outputs() []string {
	if s.dag == nil {
		return nil
	}
	return s.dag.Sinks()
}

// Graph implements StaticDriver.
func (s *StaticBase) Graph() *DAG { return s.dag }
