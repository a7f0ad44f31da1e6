// Package provenance implements Hi-WAY's Provenance Manager (§3.5): it
// surveys workflow execution and registers events at three levels of
// granularity — workflow, task, and file — each timestamped and uniquely
// identified, written to traces as JSON objects.
//
// The resulting traces serve three purposes, all reproduced here:
//   - adaptive scheduling: the Workflow Scheduler queries the manager for
//     the latest observed runtime of a task signature on a node;
//   - reproducibility: a trace can be parsed back into an executable
//     workflow (package lang/trace);
//   - long-term storage: traces can live in a JSONL file (the paper's
//     HDFS trace file) or, as binary records, in an append-only log
//     (package provdb, the MySQL/Couchbase stand-in).
package provenance

import (
	"fmt"
	"strconv"

	"hiway/internal/wf"
)

// EventType discriminates provenance events.
type EventType string

// Event types at workflow, task, and file granularity.
const (
	WorkflowStart EventType = "workflow-start"
	WorkflowEnd   EventType = "workflow-end"
	TaskStart     EventType = "task-start"
	TaskEnd       EventType = "task-end"
	// WorkflowResumed marks an AM recovering a workflow from this store's
	// own provenance: completed tasks were reconstructed rather than re-run.
	WorkflowResumed EventType = "workflow-resumed"
)

// FileEvent records one file consumed or produced by a task, including the
// time spent moving it between HDFS and the local file system.
type FileEvent struct {
	Path        string  `json:"path"`
	SizeMB      float64 `json:"sizeMB"`
	Param       string  `json:"param,omitempty"`
	TransferSec float64 `json:"transferSec,omitempty"`
}

// Event is one provenance record. Fields are populated according to Type.
type Event struct {
	Type         EventType `json:"type"`
	Timestamp    float64   `json:"timestamp"`
	WorkflowID   string    `json:"workflowId"`
	WorkflowName string    `json:"workflowName,omitempty"`

	// Task-level fields.
	TaskID    int64  `json:"taskId,omitempty"`
	Attempt   int    `json:"attempt,omitempty"`
	Signature string `json:"signature,omitempty"`
	Command   string `json:"command,omitempty"`
	Node      string `json:"node,omitempty"`
	ExitCode  int    `json:"exitCode,omitempty"`
	Error     string `json:"error,omitempty"`
	Stdout    string `json:"stdout,omitempty"`
	Stderr    string `json:"stderr,omitempty"`

	// Timing breakdown (task-end) or total makespan (workflow-end).
	DurationSec float64 `json:"durationSec,omitempty"`
	StageInSec  float64 `json:"stageInSec,omitempty"`
	ExecSec     float64 `json:"execSec,omitempty"`
	StageOutSec float64 `json:"stageOutSec,omitempty"`

	// Resource profile, recorded so traces are re-executable.
	CPUSeconds float64 `json:"cpuSeconds,omitempty"`
	Threads    int     `json:"threads,omitempty"`
	MemMB      int     `json:"memMB,omitempty"`

	// File-level records attached to task events.
	Inputs  []FileEvent `json:"inputs,omitempty"`
	Outputs []FileEvent `json:"outputs,omitempty"`

	// Workflow-end summary.
	Succeeded bool `json:"succeeded,omitempty"`

	// Workflow-resumed summary: completed tasks recovered from provenance.
	Recovered int `json:"recovered,omitempty"`

	// MemoHit marks a task-end that was spliced from the cluster memo table
	// rather than executed: the task completed with zero attempts, zero
	// duration, and no node.
	MemoHit bool `json:"memoHit,omitempty"`
	// MemoSource is the workflow whose execution populated the memo entry a
	// hit was served from — the attribution edge the memo-hit provenance
	// query walks.
	MemoSource string `json:"memoSource,omitempty"`
}

// ID derives the event's unique identifier from its run, type, task, attempt
// and, for a resume, timestamp: <wf>-start, <wf>-end, <wf>-resume-<ts %g>, and
// <wf>-task-<n>[-start], then -a<k> for attempt k > 0. Traces carry it as "id".
func (ev *Event) ID() string {
	switch ev.Type {
	case TaskStart, TaskEnd:
		id := ev.WorkflowID + "-task-" + strconv.FormatInt(ev.TaskID, 10)
		if ev.Type == TaskStart {
			id += "-start"
		}
		if ev.Attempt > 0 {
			id += "-a" + strconv.Itoa(ev.Attempt)
		}
		return id
	case WorkflowResumed:
		return fmt.Sprintf("%s-resume-%g", ev.WorkflowID, ev.Timestamp)
	case WorkflowStart:
		return ev.WorkflowID + "-start"
	case WorkflowEnd:
		return ev.WorkflowID + "-end"
	}
	return ev.WorkflowID + "-" + string(ev.Type)
}

// TaskEndEvent builds the task-end event for a completed task result, one per
// attempt, so failed attempts stay visible in the trace. Inputs are unsized:
// the caller, which knows where they live, sets each SizeMB in place.
func TaskEndEvent(wfID, wfName string, res *wf.TaskResult) Event {
	ev := Event{
		Type:         TaskEnd,
		Timestamp:    res.End,
		WorkflowID:   wfID,
		WorkflowName: wfName,
		TaskID:       res.Task.ID,
		Attempt:      res.Attempt,
		Signature:    res.Task.Name,
		Command:      res.Task.Command,
		Node:         res.Node,
		ExitCode:     res.ExitCode,
		Error:        res.Error,
		Stdout:       res.Stdout,
		Stderr:       res.Stderr,
		DurationSec:  res.End - res.Start,
		StageInSec:   res.StageInSec,
		ExecSec:      res.ExecSec,
		StageOutSec:  res.StageOutSec,
		CPUSeconds:   res.Task.CPUSeconds,
		Threads:      res.Task.Threads,
		MemMB:        res.Task.MemMB,
	}
	if n := len(res.Task.Inputs); n > 0 {
		ev.Inputs = make([]FileEvent, n)
		for i, in := range res.Task.Inputs {
			ev.Inputs[i] = FileEvent{Path: in}
		}
	}
	outs := 0
	for _, param := range res.Task.OutputParams {
		outs += len(res.Outputs[param])
	}
	if outs > 0 {
		ev.Outputs = make([]FileEvent, 0, outs)
		for _, param := range res.Task.OutputParams {
			for _, fi := range res.Outputs[param] {
				ev.Outputs = append(ev.Outputs, FileEvent{Path: fi.Path, SizeMB: fi.SizeMB, Param: param})
			}
		}
	}
	return ev
}
