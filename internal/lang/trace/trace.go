// Package trace interprets Hi-WAY provenance traces as executable
// workflows — the paper's fourth supported workflow language (§3.5). A
// trace file records every task of a run with its command, consumed and
// produced files, and resource profile; replaying it re-executes the same
// task graph, though not necessarily on the same compute nodes.
package trace

import (
	"fmt"
	"sort"

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

// FromEvents reconstructs the task graph from the task-end events of one
// run; a log whose task ends belong to several runs (a serve flush, a
// sharded `sim -prov`) is refused, since task IDs count from 1 in every
// run. A task may end more than once — a failed attempt a retry recovered,
// the loser of a speculative race — and is replayed from its one successful
// end, in the order of those ends. A task with no successful end is
// rejected, since its downstream products never existed; so is one that
// succeeded twice.
func FromEvents(events []provenance.Event) ([]*wf.Task, []string, []wf.Edge, error) {
	runs := map[string]bool{}
	for _, ev := range events {
		if ev.Type == provenance.TaskEnd {
			runs[ev.WorkflowID] = true
		}
	}
	if len(runs) > 1 {
		ids := make([]string, 0, len(runs))
		for id := range runs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return nil, nil, nil, fmt.Errorf("trace: the log holds task ends of %d runs %q; replay takes a log of one run", len(ids), ids)
	}
	succeeded := map[int64]bool{}
	var ends []provenance.Event
	for _, ev := range events {
		if ev.Type != provenance.TaskEnd || ev.ExitCode != 0 || ev.Error != "" {
			continue
		}
		if succeeded[ev.TaskID] {
			return nil, nil, nil, fmt.Errorf("trace: task %d (%s) succeeded twice in the recorded run; trace is not replayable", ev.TaskID, ev.Signature)
		}
		succeeded[ev.TaskID] = true
		ends = append(ends, ev)
	}
	for _, ev := range events {
		if ev.Type == provenance.TaskEnd && !succeeded[ev.TaskID] {
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
