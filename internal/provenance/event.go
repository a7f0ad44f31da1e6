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
	ID           string    `json:"id"`
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

// TaskEndEvent builds the task-end event for a completed task result. Each
// attempt of a task yields a distinct event (retries and speculative
// duplicates suffix the ID), so failed attempts stay visible in the trace.
func TaskEndEvent(wfID, wfName string, res *wf.TaskResult, inputSizes map[string]float64) Event {
	ev := Event{
		ID:           taskEventID(wfID, res.Task.ID, "", res.Attempt),
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
			ev.Inputs[i] = FileEvent{Path: in, SizeMB: inputSizes[in]}
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

// taskEventID returns "<wfID>-task-<task><suffix>", then "-a<attempt>" for
// a retry or speculative duplicate (attempt > 0): the ID of one attempt's
// task-start (suffix "-start") or task-end (suffix "") event, built in a
// stack buffer with one allocation, the string.
func taskEventID(wfID string, task int64, suffix string, attempt int) string {
	var buf [64]byte
	b := append(buf[:0], wfID...)
	b = append(b, "-task-"...)
	b = strconv.AppendInt(b, task, 10)
	b = append(b, suffix...)
	if attempt > 0 {
		b = append(b, "-a"...)
		b = strconv.AppendInt(b, int64(attempt), 10)
	}
	return string(b)
}
