package provenance

import (
	"strings"
	"testing"
)

func queryFixture(t *testing.T) Store {
	t.Helper()
	store := NewMemStore()
	events := []Event{
		{Type: WorkflowStart, WorkflowID: "w1", WorkflowName: "snv"},
		{Type: TaskEnd, WorkflowID: "w1", TaskID: 1, Signature: "align", Node: "n1", DurationSec: 100},
		{Type: TaskEnd, WorkflowID: "w1", TaskID: 2, Signature: "align", Node: "n2", DurationSec: 300},
		{Type: TaskEnd, WorkflowID: "w1", TaskID: 3, Signature: "call", Node: "n1", DurationSec: 50, ExitCode: 1},
		{Type: TaskEnd, WorkflowID: "w1", TaskID: 3, Attempt: 1, Signature: "call", Node: "n1", DurationSec: 60},
		{Type: WorkflowEnd, WorkflowID: "w1", DurationSec: 500, Succeeded: true},
		{Type: WorkflowStart, WorkflowID: "w2", WorkflowName: "snv"},
		{Type: TaskEnd, WorkflowID: "w2", TaskID: 1, Signature: "align", Node: "n1", DurationSec: 110},
		{Type: WorkflowEnd, WorkflowID: "w2", DurationSec: 130, Succeeded: false},
	}
	for _, ev := range events {
		if err := store.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func summarize(t *testing.T, store Store) *Summary {
	t.Helper()
	sum, err := Summarize(store)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestSummarizeTasks(t *testing.T) {
	sum := summarize(t, queryFixture(t))
	sums := sum.Tasks
	if len(sums) != 2 {
		t.Fatalf("summaries = %d", len(sums))
	}
	// align has the larger total, so it sorts first.
	align := sums[0]
	if align.Signature != "align" || align.Count != 3 || align.TotalSec != 510 {
		t.Fatalf("align = %+v", align)
	}
	if align.MinSec != 100 || align.MaxSec != 300 || align.NodesSeen != 2 {
		t.Fatalf("align stats = %+v", align)
	}
	call := sums[1]
	if call.Count != 2 || call.FailedCount != 1 {
		t.Fatalf("call = %+v", call)
	}
	out := sum.Render()
	if !strings.Contains(out, "align") || !strings.Contains(out, "510.00") {
		t.Fatalf("render = %q", out)
	}
}

func TestSummarizeWorkflows(t *testing.T) {
	sums := summarize(t, queryFixture(t)).Workflows
	if len(sums) != 2 {
		t.Fatalf("workflows = %d", len(sums))
	}
	// w1's failed call and its retry are one task.
	if sums[0].WorkflowID != "w1" || sums[0].Tasks != 3 || !sums[0].Succeeded || sums[0].MakespanSec != 500 {
		t.Fatalf("w1 = %+v", sums[0])
	}
	if sums[1].WorkflowID != "w2" || sums[1].Tasks != 1 || sums[1].Succeeded {
		t.Fatalf("w2 = %+v", sums[1])
	}
}

func TestSummarizeNodes(t *testing.T) {
	sums := summarize(t, queryFixture(t)).Nodes
	if len(sums) != 2 {
		t.Fatalf("nodes = %d", len(sums))
	}
	// n1: 100+50+60+110 = 320; n2: 300.
	if sums[0].Node != "n1" || sums[0].BusySec != 320 || sums[0].Tasks != 4 || sums[0].Failures != 1 {
		t.Fatalf("n1 = %+v", sums[0])
	}
	if sums[1].Node != "n2" || sums[1].BusySec != 300 {
		t.Fatalf("n2 = %+v", sums[1])
	}
}

func TestQueriesOnEmptyStore(t *testing.T) {
	store := NewMemStore()
	if sum := summarize(t, store); len(sum.Tasks)+len(sum.Workflows)+len(sum.Nodes) != 0 {
		t.Fatalf("summary of an empty store: %+v", sum)
	}
}
