// Package trace interprets Hi-WAY provenance traces as executable
// workflows — the paper's fourth supported workflow language (§3.5). A
// trace file records every task of a run with its command, consumed and
// produced files, and resource profile; replaying it re-executes the same
// task graph, though not necessarily on the same compute nodes.
package trace

import (
	"fmt"

	"hiway/internal/provenance"
	"hiway/internal/wf"
)

// Driver executes a provenance trace; it is a wf.StaticDriver, because the
// replayed task graph is fully known upfront.
type Driver struct {
	wf.StaticBase
}

// NewDriver builds a driver for a JSONL trace text.
func NewDriver(name, traceText string) *Driver {
	d := &Driver{}
	d.WFName = name
	d.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
		events, err := provenance.ParseTrace(traceText)
		if err != nil {
			return nil, nil, nil, err
		}
		return FromEvents(events)
	}
	return d
}

// FromEvents reconstructs the task graph from task-end events. A task may
// end more than once — a failed attempt a retry recovered, the loser of a
// speculative race — and is replayed from its one successful end, in the
// order of those ends. A task with no successful end is rejected, since its
// downstream products never existed; so is one that succeeded twice.
func FromEvents(events []provenance.Event) ([]*wf.Task, []string, []wf.Edge, error) {
	type taskKey struct {
		workflow string
		task     int64
	}
	succeeded := map[taskKey]bool{}
	var ends []provenance.Event
	for _, ev := range events {
		if ev.Type != provenance.TaskEnd || ev.ExitCode != 0 || ev.Error != "" {
			continue
		}
		k := taskKey{ev.WorkflowID, ev.TaskID}
		if succeeded[k] {
			return nil, nil, nil, fmt.Errorf("trace: task %d (%s) succeeded twice in the recorded run; trace is not replayable", ev.TaskID, ev.Signature)
		}
		succeeded[k] = true
		ends = append(ends, ev)
	}
	for _, ev := range events {
		if ev.Type == provenance.TaskEnd && !succeeded[taskKey{ev.WorkflowID, ev.TaskID}] {
			return nil, nil, nil, fmt.Errorf("trace: task %d (%s) failed in the recorded run; trace is not replayable", ev.TaskID, ev.Signature)
		}
	}
	var tasks []*wf.Task
	var ids wf.IDSeq
	produced := make(map[string]bool)
	for _, ev := range ends {
		t := &wf.Task{
			ID:         ids.Next(),
			Name:       ev.Signature,
			Command:    ev.Command,
			CPUSeconds: ev.CPUSeconds,
			Threads:    ev.Threads,
			MemMB:      ev.MemMB,
			Declared:   map[string][]wf.FileInfo{},
			Meta: map[string]string{
				"replayOf":     fmt.Sprint(ev.TaskID),
				"recordedNode": ev.Node,
			},
		}
		if t.Threads == 0 {
			t.Threads = 1
		}
		for _, in := range ev.Inputs {
			t.Inputs = append(t.Inputs, in.Path)
		}
		seenParam := map[string]bool{}
		for _, out := range ev.Outputs {
			param := out.Param
			if param == "" {
				param = "out"
			}
			if !seenParam[param] {
				seenParam[param] = true
				t.OutputParams = append(t.OutputParams, param)
			}
			if produced[out.Path] {
				return nil, nil, nil, fmt.Errorf("trace: file %s produced twice", out.Path)
			}
			produced[out.Path] = true
			t.Declared[param] = append(t.Declared[param], wf.FileInfo{Path: out.Path, SizeMB: out.SizeMB})
		}
		if len(t.OutputParams) == 0 {
			t.OutputParams = []string{"out"}
		}
		tasks = append(tasks, t)
	}
	if len(tasks) == 0 {
		return nil, nil, nil, fmt.Errorf("trace: no task-end events found")
	}
	// Initial inputs: consumed but never produced. Running a trace
	// requires this input data to be present, just like the original run
	// (§3.6).
	var initial []string
	seen := map[string]bool{}
	for _, t := range tasks {
		for _, in := range t.Inputs {
			if !produced[in] && !seen[in] {
				seen[in] = true
				initial = append(initial, in)
			}
		}
	}
	return tasks, initial, nil, nil
}
