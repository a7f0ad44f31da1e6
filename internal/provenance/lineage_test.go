package provenance

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// traceFixture builds a two-run store: wf-a executes a two-stage chain for
// real; wf-b re-runs the same pipeline with the second stage spliced from
// the memo table (attributed to wf-a) plus one extra signature.
func traceFixture(t *testing.T) *MemStore {
	t.Helper()
	st := NewMemStore()
	evs := []Event{
		{Type: WorkflowStart, WorkflowID: "wf-a"},
		{Type: TaskEnd, WorkflowID: "wf-a", TaskID: 1,
			Signature: "align", Node: "n0", DurationSec: 10, CPUSeconds: 40,
			Inputs:  []FileEvent{{Path: "/data/sample.fq", SizeMB: 512}},
			Outputs: []FileEvent{{Path: "/wf/aligned.bam", SizeMB: 256}}},
		{Type: TaskEnd, WorkflowID: "wf-a", TaskID: 2,
			Signature: "call", Node: "n1", DurationSec: 5, CPUSeconds: 20,
			Inputs:  []FileEvent{{Path: "/wf/aligned.bam", SizeMB: 256}},
			Outputs: []FileEvent{{Path: "/wf/calls.vcf", SizeMB: 32}}},
		{Type: WorkflowEnd, WorkflowID: "wf-a", DurationSec: 15, Succeeded: true},
		{Type: WorkflowStart, WorkflowID: "wf-b"},
		{Type: TaskEnd, WorkflowID: "wf-b", TaskID: 1,
			Signature: "align", Node: "n0", DurationSec: 9, CPUSeconds: 40,
			Inputs:  []FileEvent{{Path: "/data/sample.fq", SizeMB: 512}},
			Outputs: []FileEvent{{Path: "/wf2/aligned.bam", SizeMB: 256}}},
		{Type: TaskEnd, WorkflowID: "wf-b", TaskID: 2,
			Signature: "call", MemoHit: true, MemoSource: "wf-a", CPUSeconds: 20,
			Inputs:  []FileEvent{{Path: "/wf2/aligned.bam", SizeMB: 256}},
			Outputs: []FileEvent{{Path: "/wf2/calls.vcf", SizeMB: 32}}},
		{Type: TaskEnd, WorkflowID: "wf-b", TaskID: 3,
			Signature: "annotate", Node: "n1", DurationSec: 2, CPUSeconds: 4,
			Inputs:  []FileEvent{{Path: "/wf2/calls.vcf", SizeMB: 32}},
			Outputs: []FileEvent{{Path: "/wf2/annotated.vcf", SizeMB: 33}}},
		{Type: WorkflowEnd, WorkflowID: "wf-b", DurationSec: 11, Succeeded: true},
	}
	for _, ev := range evs {
		if err := st.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestLineageWalksProducersToStagedLeaves(t *testing.T) {
	n := indexEvents(allEvents(t, traceFixture(t))).Lineage("/wf2/annotated.vcf")
	if n.Producer == nil || n.Producer.Signature != "annotate" {
		t.Fatalf("root producer: %+v", n.Producer)
	}
	calls := n.Producer.Inputs[0]
	if calls.Producer == nil || calls.Producer.Signature != "call" {
		t.Fatalf("calls producer: %+v", calls.Producer)
	}
	if !calls.Producer.MemoHit || calls.Producer.MemoSource != "wf-a" {
		t.Fatalf("memo attribution lost in lineage: %+v", calls.Producer)
	}
	aligned := calls.Producer.Inputs[0]
	if aligned.Producer == nil || aligned.Producer.Signature != "align" {
		t.Fatalf("aligned producer: %+v", aligned.Producer)
	}
	leaf := aligned.Producer.Inputs[0]
	if leaf.Path != "/data/sample.fq" || leaf.Producer != nil {
		t.Fatalf("staged leaf: %+v", leaf)
	}
	text := RenderLineage(n)
	for _, want := range []string{"[staged]", "[memo hit from wf-a]", "/wf2/annotated.vcf"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered lineage missing %q:\n%s", want, text)
		}
	}
}

func TestLineageCutsCycles(t *testing.T) {
	st := NewMemStore()
	// Malformed trace: a and b produce each other.
	_ = st.Append(Event{Type: TaskEnd, WorkflowID: "wf", TaskID: 1, Signature: "s1",
		Inputs: []FileEvent{{Path: "/b"}}, Outputs: []FileEvent{{Path: "/a"}}})
	_ = st.Append(Event{Type: TaskEnd, WorkflowID: "wf", TaskID: 2, Signature: "s2",
		Inputs: []FileEvent{{Path: "/a"}}, Outputs: []FileEvent{{Path: "/b"}}})
	n := indexEvents(allEvents(t, st)).Lineage("/a")
	// /a <- s1 <- /b <- s2 <- /a (cut: leaf, no producer)
	inner := n.Producer.Inputs[0].Producer.Inputs[0]
	if inner.Path != "/a" || inner.Producer != nil {
		t.Fatalf("cycle not cut: %+v", inner)
	}
}

func TestDiffRunsSeparatesAndDeltas(t *testing.T) {
	d, err := DiffRuns("wf-a", "wf-b", traceFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if d.MakespanA != 15 || d.MakespanB != 11 {
		t.Fatalf("makespans: %+v", d)
	}
	if len(d.OnlyA) != 0 || len(d.OnlyB) != 1 || d.OnlyB[0] != "annotate" {
		t.Fatalf("onlys: %+v %+v", d.OnlyA, d.OnlyB)
	}
	if len(d.Common) != 2 {
		t.Fatalf("common: %+v", d.Common)
	}
	call := d.Common[1]
	if call.Signature != "call" || call.MemoHitsA != 0 || call.MemoHitsB != 1 {
		t.Fatalf("call delta: %+v", call)
	}
	if call.TotalSecA != 5 || call.TotalSecB != 0 {
		t.Fatalf("call durations: %+v", call)
	}
	if _, err := DiffRuns("wf-a", "nope", traceFixture(t)); err == nil {
		t.Fatal("diff against an unknown run did not error")
	}
	if !strings.Contains(RenderRunDiff(d), "only in wf-b: annotate") {
		t.Fatal("rendered diff missing only-in row")
	}
}

func TestMemoHitsAttribution(t *testing.T) {
	ix := indexEvents(allEvents(t, traceFixture(t)))
	hits := ix.MemoHits("")
	if len(hits) != 1 {
		t.Fatalf("hits: %+v", hits)
	}
	h := hits[0]
	if h.WorkflowID != "wf-b" || h.Signature != "call" || h.MemoSource != "wf-a" || h.CPUSavedSec != 20 {
		t.Fatalf("attribution: %+v", h)
	}
	if filtered := ix.MemoHits("wf-a"); len(filtered) != 0 {
		t.Fatalf("wf-a executed everything for real, got %+v", filtered)
	}
	if !strings.Contains(RenderMemoHits(hits), "1 memo hits, 20.00 cpu-seconds saved") {
		t.Fatal("rendered memo-hits missing total")
	}
}

func TestParseQueryRoundTripAndErrors(t *testing.T) {
	good := []string{
		"lineage /wf/calls.vcf",
		"diff wf-a wf-b",
		"memo-hits",
		"memo-hits wf-b",
	}
	for _, s := range good {
		q, err := ParseQuery(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if q.String() != s {
			t.Fatalf("round trip: %q -> %q", s, q.String())
		}
		q2, err := ParseQuery(q.String())
		if err != nil || q2 != q {
			t.Fatalf("re-parse: %+v vs %+v (%v)", q, q2, err)
		}
	}
	bad := []string{"", "   ", "lineage", "lineage a b", "diff one", "diff a b c", "memo-hits a b", "explode"}
	for _, s := range bad {
		if _, err := ParseQuery(s); err == nil {
			t.Fatalf("%q parsed", s)
		}
	}
}

func TestRunQueryDispatch(t *testing.T) {
	st := traceFixture(t)
	for _, tc := range []struct{ q, want string }{
		{"lineage /wf2/calls.vcf", "[memo hit from wf-a]"},
		{"diff wf-a wf-b", "makespan: 15.00 s vs 11.00 s"},
		{"memo-hits wf-b", "cpu-seconds saved"},
	} {
		q, err := ParseQuery(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunQuery(st, q)
		if err != nil {
			t.Fatalf("%q: %v", tc.q, err)
		}
		if !strings.Contains(out, tc.want) {
			t.Fatalf("%q output missing %q:\n%s", tc.q, tc.want, out)
		}
	}
	if _, err := RunQuery(st, Query{Op: "bogus"}); err == nil {
		t.Fatal("bogus op did not error")
	}
}

// FuzzProvQuery fuzzes the query parser and the path behind it: arbitrary
// input must never panic, any successfully parsed query must round-trip
// through String, and what it answers over the fixture — through RunQuery,
// hence through the Index — must be the reference implementation's text
// (nothing in the fixture's lineages is shared, so the text is identical).
func FuzzProvQuery(f *testing.F) {
	f.Add("lineage /wf/calls.vcf")
	f.Add("lineage /wf2/annotated.vcf")
	f.Add("diff wf-a wf-b")
	f.Add("memo-hits wf-b")
	f.Add("memo-hits")
	f.Add("  lineage\t/odd path  ")
	f.Add("explode | ; $(boom)")
	f.Fuzz(func(t *testing.T, s string) {
		q, err := ParseQuery(s)
		if err != nil {
			return
		}
		q2, err := ParseQuery(q.String())
		if err != nil {
			t.Fatalf("parsed query %+v does not re-parse: %v", q, err)
		}
		if q2 != q {
			t.Fatalf("round trip diverged: %+v vs %+v", q, q2)
		}
		st := traceFixture(t)
		got, err := RunQuery(st, q)
		var want string
		switch q.Op {
		case OpLineage:
			want = refRenderLineage(refLineage(allEvents(t, st), q.Path))
		case OpMemoHits:
			want = RenderMemoHits(refMemoHits(allEvents(t, st), q.Run))
		case OpDiff:
			return // errors on unknown runs; must only not panic
		}
		if err != nil || got != want {
			t.Fatalf("%q: got %q (%v), reference %q", q, got, err, want)
		}
	})
}

// TestRenderMemoHitsMatchesReference holds RenderMemoHits to the fmt-based
// reference over seeded rows and hostile ones: values wider than their
// column, multi-byte and invalid UTF-8, extreme task IDs and non-finite,
// negative and huge CPU-seconds.
func TestRenderMemoHitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var seeded []MemoAttribution
	for i := 0; i < 200; i++ {
		seeded = append(seeded, MemoAttribution{
			WorkflowID:  fmt.Sprintf("tenant-w%03d", rng.Intn(1000)),
			TaskID:      int64(rng.Intn(5000)),
			Signature:   []string{"align", "sort", "call", "annotate", "mProjectPP"}[rng.Intn(5)],
			MemoSource:  []string{"", "alpha-w001", "beta-w017"}[rng.Intn(3)],
			CPUSavedSec: rng.Float64() * 1000,
		})
	}
	hostile := []MemoAttribution{
		{WorkflowID: strings.Repeat("w", 40), TaskID: math.MaxInt64, Signature: strings.Repeat("s", 30), MemoSource: strings.Repeat("m", 20), CPUSavedSec: math.MaxFloat64},
		{WorkflowID: "ワークフロー名前", TaskID: math.MinInt64, Signature: "größe-ß-ünïcode", MemoSource: "源泉", CPUSavedSec: math.NaN()},
		{WorkflowID: "\xff\xfe bad utf8", TaskID: -1, Signature: "\x80", MemoSource: "é\xc3", CPUSavedSec: math.Inf(1)},
		{WorkflowID: "", TaskID: 0, Signature: "", MemoSource: "", CPUSavedSec: math.Inf(-1)},
		{WorkflowID: "neg", TaskID: 123456789, Signature: "sig", CPUSavedSec: -42.125},
		{WorkflowID: "zero", TaskID: 7, Signature: "sig", CPUSavedSec: math.Copysign(0, -1)},
		{WorkflowID: "tiny", TaskID: 8, Signature: "sig", CPUSavedSec: 5e-324},
		{WorkflowID: "half", TaskID: 9, Signature: "sig", CPUSavedSec: 0.005},
		{WorkflowID: "huge", TaskID: 10, Signature: "sig", CPUSavedSec: 1e300},
		{WorkflowID: "emoji😀😀😀😀😀😀😀😀", TaskID: 11, Signature: "🧬", MemoSource: "\u00e9", CPUSavedSec: 1},
	}
	for name, rows := range map[string][]MemoAttribution{
		"empty": nil, "seeded": seeded, "hostile": hostile,
		"hostile+seeded": append(append([]MemoAttribution(nil), hostile...), seeded...),
	} {
		if got, want := RenderMemoHits(rows), refRenderMemoHits(rows); got != want {
			t.Errorf("%s: RenderMemoHits differs from the reference:\n got %q\nwant %q", name, got, want)
		}
	}
}

// FuzzRenderMemoHits holds RenderMemoHits to the fmt-based reference on
// arbitrary rows.
func FuzzRenderMemoHits(f *testing.F) {
	f.Add("alpha-w001", int64(3), "align", "beta-w002", 20.0, "ワーク", int64(-5), "\xff", "", math.NaN())
	f.Add(strings.Repeat("x", 20), int64(math.MaxInt64), "s", "-", math.Inf(-1), "", int64(0), "", "é", 1e300)
	f.Fuzz(func(t *testing.T, run1 string, task1 int64, sig1, src1 string, cpu1 float64, run2 string, task2 int64, sig2, src2 string, cpu2 float64) {
		rows := []MemoAttribution{
			{WorkflowID: run1, TaskID: task1, Signature: sig1, MemoSource: src1, CPUSavedSec: cpu1},
			{WorkflowID: run2, TaskID: task2, Signature: sig2, MemoSource: src2, CPUSavedSec: cpu2},
		}
		if got, want := RenderMemoHits(rows), refRenderMemoHits(rows); got != want {
			t.Fatalf("RenderMemoHits differs from the reference:\n got %q\nwant %q", got, want)
		}
	})
}
