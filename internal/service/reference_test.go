package service

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hiway/internal/wf"
	"hiway/internal/workloads"
)

// buildSpecWorkflow is how a run was instantiated before specs were compiled
// once per table, kept as the reference: one generator-backed workflow for a
// named submission, rebased under /svc/<tenant>/<name> so concurrent instances
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

// TestInstanceMatchesReference instantiates seeded specs for seeded tenants
// and names from one table — hits and misses — beside the reference build of
// the same run: the tasks, the staged inputs, the DAG's structure and, under
// two completion orders, the tasks it releases are equal.
func TestInstanceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var c compileTable
	specs := make([]WorkloadSpec, 6)
	for i := range specs {
		specs[i] = WorkloadSpec{Kind: []string{WorkloadSNV, WorkloadTRAPLINE, ""}[rng.Intn(3)],
			Samples: rng.Intn(5), FilesPerSample: rng.Intn(9), FileSizeMB: float64(rng.Intn(3) * 32), CPUSeconds: float64(rng.Intn(3) * 20)}
	}
	for i := 0; i < 60; i++ {
		spec, tenant, name := specs[rng.Intn(len(specs))], []string{"alpha", "beta"}[rng.Intn(2)], fmt.Sprintf("w%03d", rng.Intn(1000))
		what := fmt.Sprintf("%s/%s %+v", tenant, name, spec)
		got, gotInputs, err := c.specRun(fmt.Sprintf("/svc/%s/%s", tenant, name), spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, refInputs, _ := buildSpecWorkflow(tenant, name, spec)
		gotReady, err := got.Parse()
		if err != nil {
			t.Fatal(err)
		}
		refReady, _ := ref.Parse()
		g, r := got.Graph(), ref.Graph()
		if got.Name() != ref.Name() || !reflect.DeepEqual(gotInputs, refInputs) {
			t.Fatalf("%s: %s %v, reference %s %v", what, got.Name(), gotInputs, ref.Name(), refInputs)
		}
		if !reflect.DeepEqual(g.All(), r.All()) {
			t.Fatalf("%s: tasks differ from the reference's", what)
		}
		same := func(part string, a, b []*wf.Task) {
			t.Helper()
			if !slices.EqualFunc(a, b, func(x, y *wf.Task) bool { return x.ID == y.ID }) {
				t.Fatalf("%s: %s %v, reference %v", what, part, a, b)
			}
		}
		same("TopoOrder", g.TopoOrder(), r.TopoOrder())
		if !slices.Equal(g.Sinks(), r.Sinks()) || !slices.Equal(g.InitialInputs(), r.InitialInputs()) {
			t.Fatalf("%s: sinks %v inputs %v, reference %v %v", what, g.Sinks(), g.InitialInputs(), r.Sinks(), r.InitialInputs())
		}
		// Complete the oldest ready task first, or the newest.
		for lifo, frontier := i%2 == 1, gotReady; len(frontier) > 0; {
			same("Ready", frontier, refReady)
			k := 0
			if lifo {
				k = len(frontier) - 1
			}
			next, refNext := g.Complete(frontier[k]), r.Complete(r.All()[frontier[k].ID-1])
			same("Complete", next, refNext)
			frontier = append(slices.Delete(frontier, k, k+1), next...)
			refReady = append(slices.Delete(refReady, k, k+1), refNext...)
		}
		if !g.Done() || !r.Done() {
			t.Fatalf("%s: done %v, reference %v", what, g.Done(), r.Done())
		}
	}
	if len(c.entries) != len(specs) {
		t.Fatalf("the table holds %d entries, want one per spec (%d)", len(c.entries), len(specs))
	}
}
