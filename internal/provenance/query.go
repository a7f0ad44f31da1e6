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

// Summary is a store summarized in one pass: its workflow runs, its task
// signatures and its nodes.
type Summary struct {
	Workflows []WorkflowSummary
	Tasks     []TaskSummary
	Nodes     []NodeUsage
}

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

// WorkflowSummary aggregates one workflow run.
type WorkflowSummary struct {
	WorkflowID   string
	WorkflowName string
	MakespanSec  float64
	Tasks        int
	Succeeded    bool
}

// NodeUsage aggregates busy time per compute node.
type NodeUsage struct {
	Node     string
	Tasks    int
	BusySec  float64
	MeanSec  float64
	Failures int
}

// Summarize reads the store once. Workflows lists the recorded runs in trace
// order, a run's Tasks counting the distinct tasks that ended in it however
// many attempts each took. Tasks aggregates every task end by signature,
// sorted by total time descending ("where did the hours go?"); Nodes
// aggregates them per node, sorted by busy time descending (the skew view
// behind adaptive scheduling decisions).
func Summarize(store Store) (*Summary, error) {
	type sigAcc struct {
		TaskSummary
		nodes map[string]bool
	}
	s := &Summary{}
	at := map[string]int{}               // run → its summary's index in Workflows
	ended := map[string]map[int64]bool{} // run → the tasks that ended in it
	bySig := map[string]*sigAcc{}
	byNode := map[string]*NodeUsage{}
	err := scanEvents(store, func(ev *Event) {
		i, ok := at[ev.WorkflowID]
		switch {
		case ev.Type == WorkflowStart && !ok:
			at[ev.WorkflowID] = len(s.Workflows)
			ended[ev.WorkflowID] = map[int64]bool{}
			s.Workflows = append(s.Workflows, WorkflowSummary{WorkflowID: ev.WorkflowID, WorkflowName: ev.WorkflowName})
		case ev.Type == WorkflowEnd && ok:
			s.Workflows[i].MakespanSec, s.Workflows[i].Succeeded = ev.DurationSec, ev.Succeeded
		case ev.Type == TaskEnd:
			if ok {
				ended[ev.WorkflowID][ev.TaskID] = true
			}
			failed := ev.ExitCode != 0 || ev.Error != ""
			a := bySig[ev.Signature]
			if a == nil {
				a = &sigAcc{TaskSummary: TaskSummary{Signature: ev.Signature, MinSec: ev.DurationSec}, nodes: map[string]bool{}}
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
			if failed {
				a.FailedCount++
			}
			if ev.Node == "" {
				return
			}
			a.nodes[ev.Node] = true
			u := byNode[ev.Node]
			if u == nil {
				u = &NodeUsage{Node: ev.Node}
				byNode[ev.Node] = u
			}
			u.Tasks++
			u.BusySec += ev.DurationSec
			if failed {
				u.Failures++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for i := range s.Workflows {
		s.Workflows[i].Tasks = len(ended[s.Workflows[i].WorkflowID])
	}
	s.Tasks = make([]TaskSummary, 0, len(bySig))
	for _, a := range bySig {
		a.MeanSec = a.TotalSec / float64(a.Count)
		a.NodesSeen = len(a.nodes)
		s.Tasks = append(s.Tasks, a.TaskSummary)
	}
	sort.Slice(s.Tasks, func(i, j int) bool {
		if s.Tasks[i].TotalSec != s.Tasks[j].TotalSec {
			return s.Tasks[i].TotalSec > s.Tasks[j].TotalSec
		}
		return s.Tasks[i].Signature < s.Tasks[j].Signature
	})
	s.Nodes = make([]NodeUsage, 0, len(byNode))
	for _, u := range byNode {
		u.MeanSec = u.BusySec / float64(u.Tasks)
		s.Nodes = append(s.Nodes, *u)
	}
	sort.Slice(s.Nodes, func(i, j int) bool {
		if s.Nodes[i].BusySec != s.Nodes[j].BusySec {
			return s.Nodes[i].BusySec > s.Nodes[j].BusySec
		}
		return s.Nodes[i].Node < s.Nodes[j].Node
	})
	return s, nil
}

// Render formats the summary as three text tables, as `hiway prov` prints it.
func (s *Summary) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "workflow runs (%d):\n", len(s.Workflows))
	for _, w := range s.Workflows {
		status := "ok"
		if !w.Succeeded {
			status = "FAILED"
		}
		fmt.Fprintf(&sb, "  %-40s %-16s %4d tasks  %8.1fs  %s\n", w.WorkflowID, w.WorkflowName, w.Tasks, w.MakespanSec, status)
	}
	fmt.Fprintf(&sb, "\ntask signatures:\n%-16s %6s %9s %9s %9s %10s %6s %6s\n",
		"signature", "count", "mean (s)", "min (s)", "max (s)", "total (s)", "nodes", "failed")
	for _, t := range s.Tasks {
		fmt.Fprintf(&sb, "%-16s %6d %9.2f %9.2f %9.2f %10.2f %6d %6d\n",
			t.Signature, t.Count, t.MeanSec, t.MinSec, t.MaxSec, t.TotalSec, t.NodesSeen, t.FailedCount)
	}
	sb.WriteString("\nnode usage:\n")
	for _, n := range s.Nodes {
		fmt.Fprintf(&sb, "  %-12s %4d tasks  busy %9.1fs  mean %7.1fs  failures %d\n",
			n.Node, n.Tasks, n.BusySec, n.MeanSec, n.Failures)
	}
	return sb.String()
}
