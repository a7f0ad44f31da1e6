package wf

import (
	"fmt"
	"slices"
	"strings"
)

// Analysis summarizes a static workflow's structure and resource demands —
// what `hiway inspect` prints before a run.
type Analysis struct {
	Tasks int
	Edges int
	// Depth is the length of the longest dependency chain.
	Depth int
	// MaxParallelism is the widest level of the DAG (an upper bound on
	// useful concurrent containers).
	MaxParallelism int
	// LevelWidths lists the task count per topological level.
	LevelWidths []int
	// TotalCPUSeconds sums the declared compute demand.
	TotalCPUSeconds float64
	// CriticalPathCPUSeconds sums CPU demand along the heaviest chain —
	// a lower bound on the makespan at infinite parallelism.
	CriticalPathCPUSeconds float64
	// TotalOutputMB sums declared output volumes.
	TotalOutputMB float64
	// MaxMemMB is the largest single-task memory demand.
	MaxMemMB int
	// Signatures counts tasks per signature.
	Signatures map[string]int
	// InitialInputs is the number of pre-existing input files.
	InitialInputs int
}

// Analyze computes structural statistics for a DAG.
func Analyze(d *DAG) Analysis {
	a := Analysis{Tasks: len(d.tasks), Signatures: make(map[string]int), InitialInputs: len(d.tmpl.initial)}
	// level and cpChain are indexed by ID−1.
	level, cpChain := make([]int, len(d.tasks)), make([]float64, len(d.tasks))
	for _, i := range d.tmpl.topo {
		t, preds := d.tasks[i], d.tmpl.preds.row(i)
		a.Edges += len(preds)
		a.Signatures[t.Name]++
		a.TotalCPUSeconds += t.CPUSeconds
		for _, fi := range t.DeclaredOutputs() {
			a.TotalOutputMB += fi.SizeMB
		}
		a.MaxMemMB = max(a.MaxMemMB, t.MemMB)
		lvl, chain := 0, 0.0
		for _, j := range preds {
			lvl = max(lvl, level[j]+1)
			if cpChain[j] > chain {
				chain = cpChain[j]
			}
		}
		level[i] = lvl
		cpChain[i] = chain + t.CPUSeconds
		if cpChain[i] > a.CriticalPathCPUSeconds {
			a.CriticalPathCPUSeconds = cpChain[i]
		}
	}
	if a.Tasks > 0 {
		a.Depth = slices.Max(level) + 1
		a.LevelWidths = make([]int, a.Depth)
		for _, l := range level {
			a.LevelWidths[l]++
		}
		a.MaxParallelism = slices.Max(a.LevelWidths)
	}
	return a
}

// Render formats the analysis for terminal output.
func (a Analysis) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "tasks:            %d (%d signatures)\n", a.Tasks, len(a.Signatures))
	fmt.Fprintf(&sb, "dependency edges: %d\n", a.Edges)
	fmt.Fprintf(&sb, "depth:            %d levels\n", a.Depth)
	fmt.Fprintf(&sb, "max parallelism:  %d\n", a.MaxParallelism)
	fmt.Fprintf(&sb, "level widths:     %v\n", a.LevelWidths)
	fmt.Fprintf(&sb, "initial inputs:   %d files\n", a.InitialInputs)
	fmt.Fprintf(&sb, "total CPU:        %.0f core-seconds\n", a.TotalCPUSeconds)
	fmt.Fprintf(&sb, "critical path:    %.0f core-seconds\n", a.CriticalPathCPUSeconds)
	fmt.Fprintf(&sb, "declared output:  %.1f MB\n", a.TotalOutputMB)
	fmt.Fprintf(&sb, "peak task memory: %d MB\n", a.MaxMemMB)
	sigs := make([]string, 0, len(a.Signatures))
	for s := range a.Signatures {
		sigs = append(sigs, s)
	}
	slices.Sort(sigs)
	for _, s := range sigs {
		fmt.Fprintf(&sb, "  %-20s × %d\n", s, a.Signatures[s])
	}
	return sb.String()
}
