package provenance

import (
	"fmt"
	"sort"
	"strings"
)

// This file provides the ad-hoc query and aggregation layer the paper
// motivates for database-backed provenance (§3.5: "the usage of a database
// ... brings the added benefit of facilitating manual queries and
// aggregation"). Queries run over any Store.

// TaskSummary aggregates the executions of one task signature.
type TaskSummary struct {
	Signature   string
	Count       int
	MeanSec     float64
	MinSec      float64
	MaxSec      float64
	TotalSec    float64
	NodesSeen   int
	FailedCount int
}

// SummarizeTasks aggregates all task-end events by signature, sorted by
// total time descending — "where did the hours go?".
func SummarizeTasks(store Store) ([]TaskSummary, error) {
	type acc struct {
		TaskSummary
		nodes map[string]bool
	}
	bySig := map[string]*acc{}
	err := scanEvents(store, func(ev *Event) {
		if ev.Type != TaskEnd {
			return
		}
		a := bySig[ev.Signature]
		if a == nil {
			a = &acc{TaskSummary: TaskSummary{Signature: ev.Signature, MinSec: ev.DurationSec}, nodes: map[string]bool{}}
			bySig[ev.Signature] = a
		}
		a.Count++
		a.TotalSec += ev.DurationSec
		if ev.DurationSec < a.MinSec {
			a.MinSec = ev.DurationSec
		}
		if ev.DurationSec > a.MaxSec {
			a.MaxSec = ev.DurationSec
		}
		if ev.Node != "" {
			a.nodes[ev.Node] = true
		}
		if ev.ExitCode != 0 || ev.Error != "" {
			a.FailedCount++
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]TaskSummary, 0, len(bySig))
	for _, a := range bySig {
		a.MeanSec = a.TotalSec / float64(a.Count)
		a.NodesSeen = len(a.nodes)
		out = append(out, a.TaskSummary)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalSec != out[j].TotalSec {
			return out[i].TotalSec > out[j].TotalSec
		}
		return out[i].Signature < out[j].Signature
	})
	return out, nil
}

// WorkflowSummary aggregates one workflow run.
type WorkflowSummary struct {
	WorkflowID   string
	WorkflowName string
	MakespanSec  float64
	Tasks        int
	Succeeded    bool
}

// SummarizeWorkflows lists all recorded workflow runs in trace order. A run's
// Tasks counts the distinct tasks that ended in it, however many attempts
// each took.
func SummarizeWorkflows(store Store) ([]WorkflowSummary, error) {
	out := []WorkflowSummary{}
	at := map[string]int{}               // run → its summary's index in out
	ended := map[string]map[int64]bool{} // run → the tasks that ended in it
	err := scanEvents(store, func(ev *Event) {
		i, ok := at[ev.WorkflowID]
		switch {
		case ev.Type == WorkflowStart && !ok:
			at[ev.WorkflowID] = len(out)
			ended[ev.WorkflowID] = map[int64]bool{}
			out = append(out, WorkflowSummary{WorkflowID: ev.WorkflowID, WorkflowName: ev.WorkflowName})
		case ev.Type == TaskEnd && ok:
			ended[ev.WorkflowID][ev.TaskID] = true
		case ev.Type == WorkflowEnd && ok:
			out[i].MakespanSec, out[i].Succeeded = ev.DurationSec, ev.Succeeded
		}
	})
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].Tasks = len(ended[out[i].WorkflowID])
	}
	return out, nil
}

// NodeUsage aggregates busy time per compute node.
type NodeUsage struct {
	Node     string
	Tasks    int
	BusySec  float64
	MeanSec  float64
	Failures int
}

// SummarizeNodes aggregates task-end events per node, sorted by busy time
// descending — the skew view behind adaptive scheduling decisions.
func SummarizeNodes(store Store) ([]NodeUsage, error) {
	byNode := map[string]*NodeUsage{}
	err := scanEvents(store, func(ev *Event) {
		if ev.Type != TaskEnd || ev.Node == "" {
			return
		}
		u := byNode[ev.Node]
		if u == nil {
			u = &NodeUsage{Node: ev.Node}
			byNode[ev.Node] = u
		}
		u.Tasks++
		u.BusySec += ev.DurationSec
		if ev.ExitCode != 0 || ev.Error != "" {
			u.Failures++
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]NodeUsage, 0, len(byNode))
	for _, u := range byNode {
		u.MeanSec = u.BusySec / float64(u.Tasks)
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BusySec != out[j].BusySec {
			return out[i].BusySec > out[j].BusySec
		}
		return out[i].Node < out[j].Node
	})
	return out, nil
}

// RenderTaskSummaries formats SummarizeTasks output as a text table.
func RenderTaskSummaries(sums []TaskSummary) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %6s %9s %9s %9s %10s %6s %6s\n",
		"signature", "count", "mean (s)", "min (s)", "max (s)", "total (s)", "nodes", "failed")
	for _, s := range sums {
		fmt.Fprintf(&sb, "%-16s %6d %9.2f %9.2f %9.2f %10.2f %6d %6d\n",
			s.Signature, s.Count, s.MeanSec, s.MinSec, s.MaxSec, s.TotalSec, s.NodesSeen, s.FailedCount)
	}
	return sb.String()
}
