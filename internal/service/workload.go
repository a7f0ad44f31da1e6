package service

import (
	"fmt"
	"sync"

	"hiway/internal/lang"
	"hiway/internal/lang/cwl"
	"hiway/internal/wf"
	"hiway/internal/workloads"
)

// Workload kinds the service can generate per submission.
const (
	// WorkloadSNV is the §4.1 variant-calling workflow (default).
	WorkloadSNV = "snv"
	// WorkloadTRAPLINE is the §4.2 RNA-seq workflow.
	WorkloadTRAPLINE = "trapline"
)

// WorkloadSpec picks and sizes the DAG generator for a tenant's workflows.
// The defaults are deliberately small: service runs execute many workflow
// instances, so each is a scaled-down replica of the paper's DAG shapes.
type WorkloadSpec struct {
	// Kind is the generator: WorkloadSNV or WorkloadTRAPLINE.
	Kind string `json:"kind"`
	// Samples is the SNV sample count per workflow (default 1).
	Samples int `json:"samples,omitempty"`
	// FilesPerSample is the SNV read-file fan-out (default 2).
	FilesPerSample int `json:"filesPerSample,omitempty"`
	// FileSizeMB sizes each input file (default 64).
	FileSizeMB float64 `json:"fileSizeMB,omitempty"`
	// CPUSeconds overrides every task's CPU demand (default 40).
	CPUSeconds float64 `json:"cpuSeconds,omitempty"`
}

func (w *WorkloadSpec) setDefaults() {
	orDefault(&w.Kind, WorkloadSNV)
	orDefault(&w.Samples, 1)
	orDefault(&w.FilesPerSample, 2)
	orDefault(&w.FileSizeMB, 64)
	orDefault(&w.CPUSeconds, 40)
}

// orDefault sets *v to def unless it is positive (for a string, set).
func orDefault[T int | float64 | string](v *T, def T) {
	var zero T
	if *v <= zero {
		*v = def
	}
}

// validate checks the spec with its defaults applied.
func (w WorkloadSpec) validate() error {
	w.setDefaults()
	switch w.Kind {
	case WorkloadSNV, WorkloadTRAPLINE:
	default:
		return fmt.Errorf("unknown workload kind %q", w.Kind)
	}
	// An SNV graph has samples × (filesPerSample + 3) tasks, TRAPLINE six.
	if w.Kind == WorkloadSNV && (w.FilesPerSample > cwl.MaxTasks || w.Samples > cwl.MaxTasks/(w.FilesPerSample+3)) {
		return fmt.Errorf("samples %d × (filesPerSample %d + 3) is over %d tasks", w.Samples, w.FilesPerSample, cwl.MaxTasks)
	}
	if err := tierHDFS.CheckSize(w.FileSizeMB); err != nil {
		return fmt.Errorf("fileSizeMB: %v", err)
	}
	return nil
}

// compiled is a workflow kept per Server or Service and instantiated per
// run: a spec's graph with its DAG template, or a decoded CWL document,
// compiled per run since the run's name is in its output paths.
type compiled struct {
	graph *workloads.Graph
	tmpl  *wf.Template
	doc   *cwl.Document
}

// A table holds at most maxCompiled entries of maxCompiledTasks tasks in
// all, a CWL document counting a task per 256 bytes of its source; an entry
// that would pass either bound starts the table over.
const (
	maxCompiled      = 256
	maxCompiledTasks = 1 << 17
)

// compileTable is one Server's or Service's table of compiled workflows,
// keyed by what they were compiled from: a defaulted WorkloadSpec, or a CWL
// document's source string.
type compileTable struct {
	mu      sync.Mutex
	entries map[any]*compiled
	tasks   int
}

func (c *compileTable) put(k any, e *compiled, tasks int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) == maxCompiled || c.tasks+tasks > maxCompiledTasks || c.entries == nil {
		c.entries, c.tasks = make(map[any]*compiled), 0
	}
	if c.entries[k] == nil {
		c.entries[k], c.tasks = e, c.tasks+tasks
	}
}

// specRun instantiates the spec's workflow for one run under prefix, its
// /svc/<tenant>/<name>, so runs never collide in HDFS: its driver and the
// inputs to stage. The Service and the Server both instantiate here, so a
// replay and a live run build the same DAG for a (tenant, name, spec).
// Whether the table kept the spec changes nothing a run instantiates.
func (c *compileTable) specRun(prefix string, spec WorkloadSpec) (*wf.StaticBase, []workloads.Input, error) {
	spec.setDefaults()
	c.mu.Lock()
	e := c.entries[spec]
	c.mu.Unlock()
	if e == nil && spec.Kind == WorkloadTRAPLINE {
		e = &compiled{graph: workloads.TRAPLINEGraph(workloads.TRAPLINEConfig{
			LanesPerGroup: 1, ReadsSizeMB: spec.FileSizeMB, TophatCPUSeconds: spec.CPUSeconds,
			CufflinksCPUSeconds: spec.CPUSeconds, MergeCPUSeconds: spec.CPUSeconds, DiffCPUSeconds: spec.CPUSeconds,
		})}
	} else if e == nil {
		e = &compiled{graph: workloads.SNVGraph(workloads.SNVConfig{
			Samples: spec.Samples, FilesPerSample: spec.FilesPerSample, FileSizeMB: spec.FileSizeMB, RefLocal: true,
			AlignCPUSeconds: spec.CPUSeconds, SortCPUSeconds: spec.CPUSeconds, CallCPUSeconds: spec.CPUSeconds, AnnotateCPUSeconds: spec.CPUSeconds,
		})}
	}
	tasks, inputs := e.graph.Bind(prefix)
	if e.tmpl != nil {
		return wf.Bound(e.graph.Name, e.tmpl.Instance(tasks, workloads.Paths(inputs))), inputs, nil
	}
	// The template is the first run's: a prefix renames every path one to
	// one, so every run's dependencies are the same.
	d, err := wf.NewDAG(tasks, workloads.Paths(inputs), nil)
	if err != nil {
		return nil, nil, err
	}
	e.tmpl = d.Template()
	c.put(spec, e, len(tasks))
	return wf.Bound(e.graph.Name, d), inputs, nil
}

// cwlRun returns a driver compiling the CWL document src under the run name,
// decoded once per table: a source that fails to decode is not kept.
func (c *compileTable) cwlRun(name, src string, binds map[string]string) (wf.Driver, error) {
	c.mu.Lock()
	e := c.entries[src]
	c.mu.Unlock()
	if e == nil {
		doc, err := cwl.Decode(name, src)
		if err != nil {
			return nil, err
		}
		e = &compiled{doc: doc}
		c.put(src, e, 1+len(src)/256)
	}
	return e.doc.Driver(name, cwl.Options{Inputs: binds}), nil
}

// instantiate builds a launching run's driver and inputs, a spec's under
// prefix, and appends the request's explicit InputSpecs to the inputs.
func (c *compileTable) instantiate(r *SubmitRequest, prefix string) (driver wf.Driver, inputs []workloads.Input, err error) {
	language := r.Lang
	if language == "" && r.Workload == nil {
		language = lang.Detect("", r.Source)
	}
	switch {
	case r.Workload != nil:
		driver, inputs, err = c.specRun(prefix, *r.Workload)
	case language == lang.CWL:
		driver, err = c.cwlRun(r.Name, r.Source, r.Binds)
	default:
		driver, err = lang.NewDriver(language, r.Name, r.Source, r.Binds)
	}
	for _, in := range r.Inputs {
		inputs = append(inputs, workloads.Input{Path: in.Path, SizeMB: in.SizeMB})
	}
	return driver, inputs, err
}
