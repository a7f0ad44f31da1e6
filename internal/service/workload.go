package service

import (
	"fmt"

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
	if w.Kind == "" {
		w.Kind = WorkloadSNV
	}
	if w.Samples <= 0 {
		w.Samples = 1
	}
	if w.FilesPerSample <= 0 {
		w.FilesPerSample = 2
	}
	if w.FileSizeMB <= 0 {
		w.FileSizeMB = 64
	}
	if w.CPUSeconds <= 0 {
		w.CPUSeconds = 40
	}
}

func (w *WorkloadSpec) validate() error {
	switch w.Kind {
	case WorkloadSNV, WorkloadTRAPLINE:
	default:
		return fmt.Errorf("unknown workload kind %q", w.Kind)
	}
	if err := tierHDFS.CheckSize(w.FileSizeMB); err != nil {
		return fmt.Errorf("fileSizeMB: %v", err)
	}
	return nil
}

// buildSpecWorkflow instantiates one generator-backed workflow for a named
// submission, rebased under /svc/<tenant>/<name> so concurrent instances
// never collide in HDFS. Both the seeded-arrival Service and the network
// Server build their workloads here, which is what makes a deterministic
// replay and a live HTTP run produce identical DAGs for the same
// (tenant, name, spec) triple.
func buildSpecWorkflow(tenant, name string, spec WorkloadSpec) (*wf.StaticBase, []workloads.Input, error) {
	spec.setDefaults()
	var driver *wf.StaticBase
	var inputs []workloads.Input
	switch spec.Kind {
	case WorkloadSNV:
		driver, inputs = workloads.SNV(workloads.SNVConfig{
			Samples:            spec.Samples,
			FilesPerSample:     spec.FilesPerSample,
			FileSizeMB:         spec.FileSizeMB,
			RefLocal:           true,
			AlignCPUSeconds:    spec.CPUSeconds,
			SortCPUSeconds:     spec.CPUSeconds,
			CallCPUSeconds:     spec.CPUSeconds,
			AnnotateCPUSeconds: spec.CPUSeconds,
		})
	case WorkloadTRAPLINE:
		driver, inputs = workloads.TRAPLINE(workloads.TRAPLINEConfig{
			LanesPerGroup:       1,
			ReadsSizeMB:         spec.FileSizeMB,
			TophatCPUSeconds:    spec.CPUSeconds,
			CufflinksCPUSeconds: spec.CPUSeconds,
			MergeCPUSeconds:     spec.CPUSeconds,
			DiffCPUSeconds:      spec.CPUSeconds,
		})
	default:
		return nil, nil, fmt.Errorf("service: unknown workload kind %q", spec.Kind)
	}
	// A generator's Build hands back the task list it made and cannot fail;
	// rebasing that list leaves the AM's Parse to build the one DAG.
	tasks, _, _, _ := driver.Build()
	rebase(tasks, inputs, fmt.Sprintf("/svc/%s/%s", tenant, name))
	return driver, inputs, nil
}

// rebase prefixes every task input, declared output, and staged input path
// with the per-instance prefix.
func rebase(tasks []*wf.Task, inputs []workloads.Input, prefix string) {
	for _, t := range tasks {
		for i, in := range t.Inputs {
			t.Inputs[i] = prefix + in
		}
		for _, fis := range t.Declared {
			for i := range fis {
				fis[i].Path = prefix + fis[i].Path
			}
		}
	}
	for i := range inputs {
		inputs[i].Path = prefix + inputs[i].Path
	}
}
