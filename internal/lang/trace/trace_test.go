package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"hiway/internal/provenance"
	"hiway/internal/wf"
)

// recordedRun builds the trace of a two-step chain: align(in.fq → a.bam),
// call(a.bam → a.vcf).
func recordedRun() []provenance.Event {
	return []provenance.Event{
		{Type: provenance.WorkflowStart, WorkflowID: "wf1", WorkflowName: "snv"},
		{
			Type: provenance.TaskEnd, WorkflowID: "wf1", TaskID: 1,
			Signature: "align", Command: "bowtie2 in.fq", Node: "node-03",
			CPUSeconds: 100, Threads: 4, MemMB: 2048, DurationSec: 111,
			Inputs:  []provenance.FileEvent{{Path: "in.fq", SizeMB: 50}},
			Outputs: []provenance.FileEvent{{Path: "a.bam", SizeMB: 80, Param: "out"}},
		},
		{
			Type: provenance.TaskEnd, WorkflowID: "wf1", TaskID: 2,
			Signature: "call", Command: "varscan a.bam", Node: "node-01",
			CPUSeconds: 60, Threads: 1, DurationSec: 66,
			Inputs:  []provenance.FileEvent{{Path: "a.bam", SizeMB: 80}},
			Outputs: []provenance.FileEvent{{Path: "a.vcf", SizeMB: 2, Param: "out"}},
		},
		{Type: provenance.WorkflowEnd, WorkflowID: "wf1", DurationSec: 200, Succeeded: true},
	}
}

func TestReplayFromEvents(t *testing.T) {
	tasks, initial, edges, err := FromEvents(recordedRun())
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 || len(edges) != 0 {
		t.Fatalf("tasks=%d edges=%d", len(tasks), len(edges))
	}
	if len(initial) != 1 || initial[0] != "in.fq" {
		t.Fatalf("initial inputs = %v", initial)
	}
	align := tasks[0]
	if align.Name != "align" || align.CPUSeconds != 100 || align.Threads != 4 || align.MemMB != 2048 {
		t.Fatalf("profile not replayed: %+v", align)
	}
	if align.Declared["out"][0] != (wf.FileInfo{Path: "a.bam", SizeMB: 80}) {
		t.Fatalf("outputs = %+v", align.Declared)
	}
}

func TestDriverExecutesSameDAG(t *testing.T) {
	var text strings.Builder
	for _, ev := range recordedRun() {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		text.Write(append(line, '\n'))
	}
	d := NewDriver("replay", text.String())
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 1 || ready[0].Name != "align" {
		t.Fatalf("ready = %v", ready)
	}
	res := &wf.TaskResult{Task: ready[0], Outputs: map[string][]wf.FileInfo{"out": ready[0].Declared["out"]}}
	next, err := d.OnTaskComplete(res)
	if err != nil || len(next) != 1 || next[0].Name != "call" {
		t.Fatalf("next = %v err = %v", next, err)
	}
	res2 := &wf.TaskResult{Task: next[0], Outputs: map[string][]wf.FileInfo{"out": next[0].Declared["out"]}}
	if _, err := d.OnTaskComplete(res2); err != nil {
		t.Fatal(err)
	}
	if !d.Done() {
		t.Fatal("replay should finish")
	}
	outs := d.Outputs()
	if len(outs) != 1 || outs[0] != "a.vcf" {
		t.Fatalf("outputs = %v", outs)
	}
}

func TestDriverFromJSONLText(t *testing.T) {
	text := `{"type":"task-end","taskId":1,"signature":"solo","cpuSeconds":5,"outputs":[{"path":"o.dat","sizeMB":1,"param":"out"}]}` + "\n"
	d := NewDriver("replay", text)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 1 || ready[0].Name != "solo" || ready[0].Threads != 1 {
		t.Fatalf("ready = %+v", ready)
	}
}

func TestFailedTaskRejectsReplay(t *testing.T) {
	events := recordedRun()
	events[2].ExitCode = 1
	if _, _, _, err := FromEvents(events); err == nil || !strings.Contains(err.Error(), "task 2 (call) failed") {
		t.Fatalf("trace with a never-successful task must be rejected, got %v", err)
	}
}

// TestRecoveredAttemptsReplayFromTheirSuccess covers the runs that exercised
// fault tolerance: a crashed attempt its retry recovered, and the loser of a
// speculative race that core ends as "superseded", each recorded beside the
// task's one successful end. Either replays exactly like the clean trace.
func TestRecoveredAttemptsReplayFromTheirSuccess(t *testing.T) {
	clean, _, _, err := FromEvents(recordedRun())
	if err != nil {
		t.Fatal(err)
	}
	for name, loser := range map[string]provenance.Event{
		"retry":      {ExitCode: 1, Error: "chaos: injected crash", Node: "node-02"},
		"superseded": {ExitCode: 137, Error: "superseded: a duplicate attempt finished first", Node: "node-00"},
	} {
		events := recordedRun()
		loser.Type, loser.WorkflowID, loser.TaskID, loser.Signature = provenance.TaskEnd, "wf1", 1, "align"
		loser.Outputs = events[1].Outputs // a loser may name the same outputs
		events = append(events[:1], append([]provenance.Event{loser}, events[1:]...)...)
		tasks, initial, _, err := FromEvents(events)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tasks) != len(clean) || len(initial) != 1 {
			t.Fatalf("%s: %d tasks, initial %v", name, len(tasks), initial)
		}
		// The loser carries no command or profile, so a task replayed from
		// it would differ from the clean replay in each of them.
		for i := range tasks {
			got, want := tasks[i], clean[i]
			if got.Name != want.Name || got.Command != want.Command || got.CPUSeconds != want.CPUSeconds ||
				got.Threads != want.Threads || got.MemMB != want.MemMB {
				t.Fatalf("%s: task %d replays %+v, want %+v", name, i, got, want)
			}
		}
	}
	twice := recordedRun()
	twice = append(twice, twice[1])
	if _, _, _, err := FromEvents(twice); err == nil || !strings.Contains(err.Error(), "succeeded twice") {
		t.Fatalf("a task with two successful ends must be rejected, got %v", err)
	}
}

func TestDuplicateOutputRejected(t *testing.T) {
	events := recordedRun()
	events[2].Outputs[0].Path = "a.bam" // same as task 1's output
	if _, _, _, err := FromEvents(events); err == nil {
		t.Fatal("duplicate producer must be rejected")
	}
}

func TestEmptyTraceRejected(t *testing.T) {
	if _, _, _, err := FromEvents(nil); err == nil {
		t.Fatal("empty trace must be rejected")
	}
	d := NewDriver("x", "not json")
	if _, err := d.Parse(); err == nil {
		t.Fatal("bad JSONL must be rejected")
	}
}

func TestDefaultParamAndOutputParamFallback(t *testing.T) {
	events := []provenance.Event{{
		Type: provenance.TaskEnd, TaskID: 1, Signature: "t",
		Outputs: []provenance.FileEvent{{Path: "o1"}, {Path: "o2"}},
	}}
	tasks, _, _, err := FromEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks[0].OutputParams) != 1 || tasks[0].OutputParams[0] != "out" {
		t.Fatalf("params = %v", tasks[0].OutputParams)
	}
	if len(tasks[0].Declared["out"]) != 2 {
		t.Fatalf("outputs = %v", tasks[0].Declared)
	}
}

// TestMultiRunLogRefused: task IDs count from 1 in every run, so a log of
// several runs — a serve flush, a sharded `sim -prov` — would replay as
// unrelated runs merged into one graph, or fail on a shared path. It is
// refused with the run IDs named, whether or not the runs share paths.
func TestMultiRunLogRefused(t *testing.T) {
	for _, sharePaths := range []bool{true, false} {
		events := recordedRun()
		for _, ev := range recordedRun() {
			ev.WorkflowID = "wf0"
			if !sharePaths {
				for i := range ev.Inputs {
					ev.Inputs[i].Path = "b/" + ev.Inputs[i].Path
				}
				for i := range ev.Outputs {
					ev.Outputs[i].Path = "b/" + ev.Outputs[i].Path
				}
			}
			events = append(events, ev)
		}
		_, _, _, err := FromEvents(events)
		if want := `trace: the log holds task ends of 2 runs ["wf0" "wf1"]; replay takes a log of one run`; err == nil || err.Error() != want {
			t.Fatalf("shared paths %v: err = %v, want %q", sharePaths, err, want)
		}
	}
}

// TestResumedRunReplays: a run that an AM crash interrupted and Resume
// finished is one run — one workflow ID with a workflow-resumed marker — and
// its task that crashed before the kill replays from the resumed success.
func TestResumedRunReplays(t *testing.T) {
	events := recordedRun()
	crashed := events[2]
	crashed.ExitCode, crashed.Error = 1, "chaos: injected crash"
	events = append(events[:2:2], crashed,
		provenance.Event{Type: provenance.WorkflowResumed, WorkflowID: "wf1", WorkflowName: "snv"},
		events[2], events[3])
	tasks, initial, _, err := FromEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 || tasks[1].Name != "call" || len(initial) != 1 {
		t.Fatalf("resumed run replays as %v from %v", tasks, initial)
	}
}
