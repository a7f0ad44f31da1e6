package provenance

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"hiway/internal/provdb"
	"hiway/internal/wf"
)

// testIDs numbers the tasks sampleResult builds, so their events stay
// distinct.
var testIDs wf.IDSeq

func sampleResult(sig, node string, dur float64) *wf.TaskResult {
	task := &wf.Task{ID: testIDs.Next(), Name: sig, Inputs: []string{"in.dat"}, OutputParams: []string{"out"},
		Declared: map[string][]wf.FileInfo{"out": {{Path: "out.dat", SizeMB: 10}}}}
	task.CPUSeconds = 30
	task.Threads = 2
	task.MemMB = 1024
	task.Command = sig + " --run"
	return &wf.TaskResult{
		Task:       task,
		Node:       node,
		Start:      100,
		End:        100 + dur,
		StageInSec: 1, ExecSec: dur - 2, StageOutSec: 1,
		Outputs: map[string][]wf.FileInfo{"out": task.Declared["out"]},
	}
}

func TestManagerRecordsAndIndexes(t *testing.T) {
	m, err := NewManager(NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RecordWorkflowStart("wf1", "snv", 0); err != nil {
		t.Fatal(err)
	}
	res := sampleResult("bowtie2", "node-00", 120)
	if err := m.RecordTaskStart("wf1", "snv", res.Task, "node-00", 0, 100); err != nil {
		t.Fatal(err)
	}
	end := TaskEndEvent("wf1", "snv", res)
	end.Inputs[0].SizeMB = 5
	if err := m.Record(end); err != nil {
		t.Fatal(err)
	}
	if err := m.RecordWorkflowEnd("wf1", "snv", 250, 250, true); err != nil {
		t.Fatal(err)
	}

	if d, ok := m.LastRuntime("bowtie2", "node-00"); !ok || d != 120 {
		t.Fatalf("LastRuntime = %g %v", d, ok)
	}
	if _, ok := m.LastRuntime("bowtie2", "node-99"); ok {
		t.Fatal("unobserved node must report ok=false")
	}
	if _, ok := m.LastRuntime("ghost", "node-00"); ok {
		t.Fatal("unobserved signature must report ok=false")
	}
	if d, ok := m.MeanRuntime("bowtie2"); !ok || d != 120 {
		t.Fatalf("MeanRuntime = %g %v", d, ok)
	}
	if d, ok := m.RuntimeP95("bowtie2"); !ok || d != 120 {
		t.Fatalf("RuntimeP95 = %g %v", d, ok)
	}
	if v := m.EstimateVersion("bowtie2"); v != 1 {
		t.Fatalf("EstimateVersion = %d after one observation", v)
	}
	if v := m.EstimateVersion("ghost"); v != 0 {
		t.Fatalf("EstimateVersion = %d for an unobserved signature", v)
	}
	tasks, wfs := m.Counts()
	if tasks != 1 || wfs != 1 {
		t.Fatalf("counts = %d %d", tasks, wfs)
	}
	events, _ := m.Store().Events()
	if len(events) != 4 {
		t.Fatalf("stored %d events, want 4", len(events))
	}
	// File sizes are not indexed by the Manager: they live in the event.
	end = events[2]
	if end.Type != TaskEnd || len(end.Inputs) != 1 || end.Inputs[0].SizeMB != 5 ||
		len(end.Outputs) != 1 || end.Outputs[0].SizeMB != 10 {
		t.Fatalf("task-end event lost its file sizes: %+v", end)
	}
}

func TestLatestObservationWins(t *testing.T) {
	m, _ := NewManager(NewMemStore())
	m.Record(TaskEndEvent("wf", "w", sampleResult("tool", "n1", 100)))
	m.Record(TaskEndEvent("wf", "w", sampleResult("tool", "n1", 50)))
	if d, _ := m.LastRuntime("tool", "n1"); d != 50 {
		t.Fatalf("latest runtime = %g, want 50 (the paper uses the latest observation)", d)
	}
}

func TestMeanRuntimeAcrossNodes(t *testing.T) {
	m, _ := NewManager(NewMemStore())
	if _, ok := m.MeanRuntime("tool"); ok {
		t.Fatal("mean of nothing must be not-ok")
	}
	m.Record(TaskEndEvent("wf", "w", sampleResult("tool", "n1", 100)))
	m.Record(TaskEndEvent("wf", "w", sampleResult("tool", "n2", 200)))
	if mean, ok := m.MeanRuntime("tool"); !ok || mean != 150 {
		t.Fatalf("mean = %g %v", mean, ok)
	}
}

// opaqueStore hides a store's concrete type, the way a caller's wrapper does:
// scanEvents can only go through Events.
type opaqueStore struct{ Store }

func openDBStore(t *testing.T, path string) *DBStore {
	t.Helper()
	db, err := provdb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return NewDBStore(db)
}

// twoRuns is a seeded trace of two runs over shared paths, as one stream, with
// the paths its files come from. Its tasks ran on three nodes.
func twoRuns() (evs []Event, paths []string) {
	runs, paths := genRuns(5)
	evs = append(append(evs, runs[0]...), runs[1]...)
	for i := range evs {
		if evs[i].Type == TaskEnd {
			evs[i].Node = fmt.Sprintf("n%d", i%3)
		}
	}
	return evs, paths
}

// readState renders everything a Manager answers about twoRuns' signatures
// (sig0…sig3), the "tool" signature the tests add, and one never observed,
// on twoRuns' nodes and one that ran nothing.
func readState(m *Manager) string {
	var sb strings.Builder
	for _, sig := range []string{"sig0", "sig1", "sig2", "sig3", "tool", "ghost"} {
		fmt.Fprintf(&sb, "%s: mean %v, p95 %v, version %d, last",
			sig, fmt.Sprint(m.MeanRuntime(sig)), fmt.Sprint(m.RuntimeP95(sig)), m.EstimateVersion(sig))
		for _, node := range []string{"n0", "n1", "n2", "n9"} {
			fmt.Fprintf(&sb, " %s=%v", node, fmt.Sprint(m.LastRuntime(sig, node)))
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "counts %v\n", fmt.Sprint(m.Counts()))
	return sb.String()
}

// queryTexts renders every lineage, the diff of the two runs and the memo
// hits of a store holding twoRuns.
func queryTexts(t *testing.T, store Store, paths []string) string {
	t.Helper()
	var sb strings.Builder
	queries := []Query{{Op: OpDiff, RunA: "run-0", RunB: "run-1"}, {Op: OpMemoHits}}
	for _, p := range paths {
		queries = append(queries, Query{Op: OpLineage, Path: p})
	}
	for _, q := range queries {
		out, err := RunQuery(store, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		sb.WriteString(out)
	}
	return sb.String()
}

func TestManagerLoadsPriorEvents(t *testing.T) {
	evs, paths := twoRuns()
	mem := NewMemStore()
	mem.AppendBatch(evs)
	want := queryTexts(t, mem, paths)
	if !strings.Contains(want, " <- ") || !strings.Contains(want, "\nsig") {
		t.Fatalf("the fixture answers nothing:\n%s", want)
	}
	stores := map[string]Store{
		"mem":    NewMemStore(),
		"db":     openDBStore(t, filepath.Join(t.TempDir(), "prov.db")),
		"opaque": opaqueStore{openDBStore(t, filepath.Join(t.TempDir(), "prov.db"))},
	}
	for name, store := range stores {
		t.Run(name, func(t *testing.T) {
			defer store.Close()
			m1, _ := NewManager(store)
			m1.Record(TaskEndEvent("wf1", "w", sampleResult("tool", "n1", 77)))
			if err := m1.Flush(); err != nil {
				t.Fatal(err)
			}
			// A second manager over the same store sees the earlier run — the
			// mechanism behind Fig. 9's consecutive executions.
			m2, err := NewManager(store)
			if err != nil {
				t.Fatal(err)
			}
			if d, ok := m2.LastRuntime("tool", "n1"); !ok || d != 77 {
				t.Fatalf("prior run not loaded: %g %v", d, ok)
			}
			// Two whole runs, recorded through the manager's batches: a
			// manager loading them ends up where the one that recorded them
			// is, and the store answers queries as a MemStore of the same
			// events does (wf1's task touches none of what they ask about).
			for _, ev := range evs {
				if err := m2.Record(ev); err != nil {
					t.Fatal(err)
				}
			}
			m3, err := NewManager(m2.Store())
			if err != nil {
				t.Fatal(err)
			}
			recorded := readState(m2)
			for _, sig := range []string{"sig0", "sig1", "sig2", "sig3", "tool"} {
				if _, ok := m2.MeanRuntime(sig); !ok {
					t.Fatalf("the fixture never ran %s:\n%s", sig, recorded)
				}
				if _, ok := m2.RuntimeP95(sig); !ok {
					t.Fatalf("the fixture never finished %s:\n%s", sig, recorded)
				}
			}
			if got := readState(m3); got != recorded {
				t.Fatalf("loaded:\n%s\nrecorded:\n%s", got, recorded)
			}
			if got := queryTexts(t, store, paths); got != want {
				t.Fatalf("queries differ from a MemStore's:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// allocatedBy returns the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A growing MemStore copies each event once, into a chunk of exactly its
// batch: appending 20,000 events in the Manager's 128-event batches costs the
// events plus the allocator's rounding of each chunk, never a re-copy of the
// log, and a store fed one batch — every small run of a server — allocates
// that batch and no more.
func TestMemStoreGrowthCopiesLittle(t *testing.T) {
	const total, batchLen = 20000, 128
	const evSize = uint64(unsafe.Sizeof(Event{}))
	batch := make([]Event, batchLen)
	st := NewMemStore()
	got := allocatedBy(func() {
		for n := 0; n < total; n += batchLen {
			if err := st.AppendBatch(batch[:min(batchLen, total-n)]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n := st.Len(); n != total {
		t.Fatalf("store holds %d events, want %d", n, total)
	}
	if limit := total * evSize * 12 / 10; got > limit {
		t.Fatalf("appending %d events allocated %d bytes, %.2f× the log; want at most 1.2×",
			total, got, float64(got)/float64(total*evSize))
	}

	one := NewMemStore()
	got = allocatedBy(func() { _ = one.AppendBatch(batch[:90]) })
	// 90 events round up to the allocator's next size class (the classes
	// above 16 KB are up to 14% apart), not to a 128-event chunk (1.42×).
	if limit := 90 * evSize * 12 / 10; len(one.chunks) != 1 || cap(one.chunks[0]) != 90 || got > limit {
		t.Fatalf("one 90-event batch: %d chunks, %d bytes allocated; want one 90-event chunk and at most %d",
			len(one.chunks), got, limit)
	}
}

// TestWriteTraceRoundTrip pins the trace format: one line per event, in
// order, its derived "id" first and then the event's json.Marshal fields,
// which ParseTrace reads back to the same events.
func TestWriteTraceRoundTrip(t *testing.T) {
	store := NewMemStore()
	m, _ := NewManager(store)
	m.RecordWorkflowStart("wf1", "demo", 0)
	end := TaskEndEvent("wf1", "demo", sampleResult("tool", "n1", 10))
	end.Inputs[0].SizeMB = 5
	m.Record(end)
	m.RecordWorkflowEnd("wf1", "demo", 12, 12, true)
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	events := allEvents(t, store)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, ev := range events {
		id, _ := json.Marshal(ev.ID())
		b, _ := json.Marshal(ev)
		fmt.Fprintf(&want, "{\"id\":%s,%s\n", id, b[1:])
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatalf("trace bytes:\n%s\nwant:\n%s", buf.Bytes(), want.Bytes())
	}
	back, err := ParseTrace(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, events) {
		t.Fatalf("round trip:\n%+v\nwant:\n%+v", back, events)
	}
	if err := WriteTrace(failWriter{}, events); err == nil {
		t.Fatal("a failing writer must fail WriteTrace")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestParseTraceErrors(t *testing.T) {
	if _, err := ParseTrace("not-json\n"); err == nil {
		t.Fatal("garbage line must error")
	}
	evs, err := ParseTrace("\n\n")
	if err != nil || len(evs) != 0 {
		t.Fatalf("blank trace: %v %v", evs, err)
	}
}

func TestDBStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.db")
	store := openDBStore(t, path)
	m, _ := NewManager(store)
	for i := 0; i < 5; i++ {
		m.Record(TaskEndEvent("wf1", "demo", sampleResult("tool", "n1", float64(10+i))))
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := store.Events()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("events = %d", len(events))
	}
	// Append order preserved.
	for i := 1; i < len(events); i++ {
		if events[i].DurationSec <= events[i-1].DurationSec {
			t.Fatalf("order broken: %v", events)
		}
	}
	store.Close()

	// Reopen: sequence continues, prior events inform a new manager.
	store2 := openDBStore(t, path)
	m2, err := NewManager(store2)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := m2.LastRuntime("tool", "n1"); !ok || d != 14 {
		t.Fatalf("latest after reopen = %g %v", d, ok)
	}
	m2.Record(TaskEndEvent("wf2", "demo", sampleResult("tool", "n2", 99)))
	// m2.Store() flushes the buffered event before exposing the store.
	events, _ = m2.Store().Events()
	if len(events) != 6 {
		t.Fatalf("after reopen append: %d events", len(events))
	}

	// Two runs behind those, one event at a time and in a batch: what comes
	// back — now, and from the file — is what went in, and answers queries as
	// it does from a MemStore.
	evs, paths := twoRuns()
	mem := NewMemStore()
	mem.AppendBatch(evs)
	want := queryTexts(t, mem, paths)
	for _, ev := range evs[:3] {
		if err := store2.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := store2.AppendBatch(evs[3:]); err != nil {
		t.Fatal(err)
	}
	for _, reopen := range []bool{false, true} {
		if reopen {
			store2.Close()
			store2 = openDBStore(t, path)
		}
		events, err = store2.Events()
		if err != nil || len(events) != 6+len(evs) {
			t.Fatalf("reopened %v: %d events, %v", reopen, len(events), err)
		}
		for i := range evs {
			if !sameEvent(&events[6+i], &evs[i]) {
				t.Fatalf("reopened %v: event %d came back as\n%+v, want\n%+v", reopen, i, events[6+i], evs[i])
			}
		}
		if got := queryTexts(t, store2, paths); got != want {
			t.Fatalf("reopened %v: queries differ from a MemStore's:\n%s\nwant:\n%s", reopen, got, want)
		}
	}
	store2.Close()
}

// A batch larger than one commit arrives whole and in order.
func TestDBStoreCutsLargeBatchesIntoCommits(t *testing.T) {
	store := openDBStore(t, filepath.Join(t.TempDir(), "prov.db"))
	defer store.Close()
	evs := make([]Event, 2*maxCommitEvents+3)
	for i := range evs {
		evs[i] = Event{Signature: fmt.Sprint("e", i), TaskID: int64(i)}
	}
	if err := store.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	if err := store.AppendBatch(evs); err != nil {
		t.Fatal(err)
	}
	got, err := store.Events()
	if err != nil || len(got) != len(evs) || store.db.Len() != len(evs) {
		t.Fatalf("%d events from %d records, %v; want %d", len(got), store.db.Len(), err, len(evs))
	}
	for i := range got {
		if got[i].Signature != evs[i].Signature {
			t.Fatalf("event %d is %s, want %s", i, got[i].Signature, evs[i].Signature)
		}
	}
}

// A record that is not in this format fails by name, never as a misparse.
func TestDBStoreRefusesUnknownRecords(t *testing.T) {
	db, err := provdb.Open(filepath.Join(t.TempDir(), "prov.db"))
	if err != nil {
		t.Fatal(err)
	}
	store := NewDBStore(db)
	defer store.Close()
	store.Append(Event{Signature: "ok"})
	jsonl := []byte(`{"id":"json","type":"task-end"}`)
	db.Append(jsonl, []int{len(jsonl)})
	if _, err := store.Events(); err == nil || !strings.Contains(err.Error(), "record 1: unknown record version 0x7b") {
		t.Fatalf("Events = %v, want the record's position and the version named", err)
	}
	if _, err := NewManager(store); err == nil {
		t.Fatal("a manager loaded an undecodable store")
	}
	if _, err := RunQuery(store, Query{Op: OpMemoHits}); err == nil {
		t.Fatal("a query ran over an undecodable store")
	}
}

// A log a build before derived IDs wrote holds version-1 records, which carry
// the event's ID ahead of the fields version 2 keeps. They are refused by
// version, not misread.
func TestDBStoreRefusesVersion1Records(t *testing.T) {
	db, err := provdb.Open(filepath.Join(t.TempDir(), "prov.db"))
	if err != nil {
		t.Fatal(err)
	}
	store := NewDBStore(db)
	defer store.Close()
	v2 := appendEvent(nil, &Event{Type: TaskEnd, WorkflowID: "wf", TaskID: 1})
	v1 := append(appendString([]byte{1, v2[1]}, "wf-task-1"), v2[2:]...)
	db.Append(v1, []int{len(v1)})
	if _, err := store.Events(); err == nil || !strings.Contains(err.Error(), "record 0: unknown record version 0x01") {
		t.Fatalf("Events = %v, want the version-1 record refused by version", err)
	}
	if _, err := NewManager(store); err == nil {
		t.Fatal("a manager loaded a version-1 log")
	}
}

// TestDBStoreAndTraceAnswerAlike records one run — a retried task, a memo
// hit, sized inputs — into a DBStore and into a JSONL trace: the summaries
// and query answers read back from either are the same.
func TestDBStoreAndTraceAnswerAlike(t *testing.T) {
	db := openDBStore(t, filepath.Join(t.TempDir(), "prov.db"))
	defer db.Close()
	mem := NewMemStore()
	var ms []*Manager
	for _, st := range []Store{db, mem} {
		m, err := NewManager(st)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	record := func(ev Event) {
		for _, m := range ms {
			if err := m.Record(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	align := &wf.Task{ID: 1, Name: "align", Inputs: []string{"/in/r.fq"}, OutputParams: []string{"bam"}}
	call := &wf.Task{ID: 2, Name: "call", Inputs: []string{"/wf/r.bam"}, OutputParams: []string{"vcf"}}
	record(Event{Type: WorkflowStart, WorkflowID: "wf1", WorkflowName: "snv"})
	for attempt, node := range []string{"n1", "n2"} {
		res := &wf.TaskResult{Task: align, Node: node, Attempt: attempt, Start: float64(10 * attempt), End: float64(10*attempt + 8)}
		if attempt == 0 {
			res.ExitCode, res.Error = 1, "injected fault"
		} else {
			res.Outputs = map[string][]wf.FileInfo{"bam": {{Path: "/wf/r.bam", SizeMB: 32}}}
		}
		ev := TaskEndEvent("wf1", "snv", res)
		ev.Inputs[0].SizeMB = 64
		record(ev)
	}
	hit := TaskEndEvent("wf1", "snv", &wf.TaskResult{Task: call, Start: 18, End: 18,
		Outputs: map[string][]wf.FileInfo{"vcf": {{Path: "/wf/r.vcf", SizeMB: 1}}}})
	hit.MemoHit, hit.MemoSource = true, "wf0"
	record(hit)
	record(Event{Type: WorkflowEnd, Timestamp: 18, WorkflowID: "wf1", WorkflowName: "snv", DurationSec: 18, Succeeded: true})
	for _, m := range ms {
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var trace bytes.Buffer
	if err := WriteTrace(&trace, allEvents(t, mem)); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTrace(trace.String())
	if err != nil {
		t.Fatal(err)
	}
	fromTrace := NewMemStore()
	fromTrace.AppendBatch(parsed)

	answers := func(st Store) string {
		var sb strings.Builder
		sum, err := Summarize(st)
		fmt.Fprintf(&sb, "%+v\n%v\n", sum, err)
		for _, q := range []Query{{Op: OpLineage, Path: "/wf/r.vcf"}, {Op: OpMemoHits}} {
			out, err := RunQuery(st, q)
			fmt.Fprintf(&sb, "%s: %s %v\n", q, out, err)
		}
		return sb.String()
	}
	want := answers(fromTrace)
	if !strings.Contains(want, "Tasks:2 ") || !strings.Contains(want, "<- align task 1") {
		t.Fatalf("the trace answers too little:\n%s", want)
	}
	if got := answers(db); got != want {
		t.Fatalf("the DBStore answers\n%s\nthe trace answers\n%s", got, want)
	}
}

// A batch is one write: a crash during it leaves a prefix of the batch's
// records and at most one torn one. Cutting the log at every byte of its last
// batch — the header's bytes too, when that batch is the log's first — Open
// recovers exactly the whole records, the store reads back that prefix of the
// events, and the next append continues behind it.
func TestTornBatchRecoversWholeRecords(t *testing.T) {
	evs, _ := twoRuns()
	for _, before := range []int{10, 0} {
		dir := t.TempDir()
		path := filepath.Join(dir, "prov.db")
		first, last := evs[:before], evs[before:before+6]
		store := openDBStore(t, path)
		if err := store.AppendBatch(first); err != nil {
			t.Fatal(err)
		}
		fi, _ := os.Stat(path)
		batchStart := int(fi.Size())
		// Where each record of the last batch ends: append them one by one to a
		// second store — the log's bytes are the same either way.
		var ends []int
		single := openDBStore(t, filepath.Join(dir, "single.db"))
		single.AppendBatch(first)
		for _, ev := range last {
			single.Append(ev)
			fi, _ := os.Stat(filepath.Join(dir, "single.db"))
			ends = append(ends, int(fi.Size()))
		}
		single.Close()
		if err := store.AppendBatch(last); err != nil {
			t.Fatal(err)
		}
		store.Close()
		whole, _ := os.ReadFile(path)
		if one, _ := os.ReadFile(filepath.Join(dir, "single.db")); !bytes.Equal(whole, one) {
			t.Fatal("a batch and single appends of the same events wrote different logs")
		}

		for cut := batchStart; cut <= len(whole); cut++ {
			complete := 0
			for _, end := range ends {
				if end <= cut {
					complete++
				}
			}
			torn := filepath.Join(dir, "torn.db")
			os.WriteFile(torn, whole[:cut], 0o644)
			st := openDBStore(t, torn)
			got, err := st.Events()
			if err != nil || len(got) != len(first)+complete {
				t.Fatalf("cut at %d: %d events, %v; want %d", cut, len(got), err, len(first)+complete)
			}
			for i := range got {
				if !sameEvent(&got[i], &evs[i]) {
					t.Fatalf("cut at %d: event %d came back changed", cut, i)
				}
			}
			if err := st.Append(Event{Signature: "after-the-crash"}); err != nil {
				t.Fatal(err)
			}
			st.Close()
			st = openDBStore(t, torn)
			got, err = st.Events()
			if err != nil || len(got) != len(first)+complete+1 || got[len(got)-1].Signature != "after-the-crash" {
				t.Fatalf("cut at %d: after the next append %d events, %v", cut, len(got), err)
			}
			st.Close()
		}
	}
}

func TestTaskEndEventFields(t *testing.T) {
	res := sampleResult("varscan", "node-07", 60)
	res.Stdout = "ok"
	ev := TaskEndEvent("wfX", "snv", res)
	if ev.Type != TaskEnd || ev.Signature != "varscan" || ev.Node != "node-07" {
		t.Fatalf("event = %+v", ev)
	}
	if ev.DurationSec != 60 || ev.CPUSeconds != 30 || ev.Threads != 2 {
		t.Fatalf("profile = %+v", ev)
	}
	if len(ev.Inputs) != 1 || ev.Inputs[0] != (FileEvent{Path: "in.dat"}) {
		t.Fatalf("inputs = %+v, want in.dat unsized", ev.Inputs)
	}
	if len(ev.Outputs) != 1 || ev.Outputs[0].Param != "out" {
		t.Fatalf("outputs = %+v", ev.Outputs)
	}
	if want := fmt.Sprintf("wfX-task-%d", res.Task.ID); ev.ID() != want {
		t.Fatalf("id = %q, want %q", ev.ID(), want)
	}
}

// TestEventIDMatchesTheStoredIDs drives every kind of event through the
// record path and holds its derived ID to the one the record path used to
// build and store (refEventID, reference_test.go) — in memory, in the "id"
// of its trace line and after a provdb round trip.
func TestEventIDMatchesTheStoredIDs(t *testing.T) {
	m, _ := NewManager(NewMemStore())
	var want []string
	long := strings.Repeat("w", 80)
	for _, wfID := range []string{"wf1", "hiway-snv-00", "100%-done %d %s", "", long} {
		m.RecordWorkflowStart(wfID, "n", 0)
		want = append(want, refWorkflowID(wfID, "-start"))
		for _, task := range []int64{1, 7, 255, 256, 1 << 40} {
			for attempt := 0; attempt <= 2; attempt++ {
				m.RecordTaskStart(wfID, "n", &wf.Task{ID: task}, "node", attempt, 1)
				m.Record(TaskEndEvent(wfID, "n", &wf.TaskResult{Task: &wf.Task{ID: task}, Attempt: attempt}))
				want = append(want, refTaskEventID(wfID, task, "-start", attempt), refTaskEventID(wfID, task, "", attempt))
			}
			// A memo hit is a task end of no attempt, as core records it.
			hit := TaskEndEvent(wfID, "n", &wf.TaskResult{Task: &wf.Task{ID: task}})
			hit.MemoHit, hit.MemoSource = true, "wf0"
			m.Record(hit)
			want = append(want, refTaskEventID(wfID, task, "", 0))
		}
		for _, at := range []float64{0, 3, 250, 0.1, 12.5, 1.0 / 3, 999999, 1e6, 123456789.125, 1e21, math.MaxFloat64} {
			m.RecordWorkflowResume(wfID, "n", at, 2)
			want = append(want, refResumeID(wfID, at))
		}
		m.RecordWorkflowEnd(wfID, "n", 9, 9, true)
		want = append(want, refWorkflowID(wfID, "-end"))
	}
	evs := allEvents(t, m.Store())
	if len(evs) != len(want) {
		t.Fatalf("%d events, want %d", len(evs), len(want))
	}
	for i := range evs {
		if got := evs[i].ID(); got != want[i] {
			t.Errorf("%s event %d: ID %q, want %q", evs[i].Type, i, got, want[i])
		}
	}

	var trace bytes.Buffer
	if err := WriteTrace(&trace, evs); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSuffix(trace.String(), "\n"), "\n") {
		var rec struct{ ID string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.ID != want[i] {
			t.Fatalf("trace line %d: id %q (%v), want %q", i, rec.ID, err, want[i])
		}
	}
	db := openDBStore(t, filepath.Join(t.TempDir(), "prov.db"))
	defer db.Close()
	if err := db.AppendBatch(evs); err != nil {
		t.Fatal(err)
	}
	for i, ev := range allEvents(t, db) {
		if got := ev.ID(); got != want[i] {
			t.Fatalf("event %d after provdb: ID %q, want %q", i, got, want[i])
		}
	}
	if got := (&Event{Type: "task-paused", WorkflowID: "wf1"}).ID(); got != "wf1-task-paused" {
		t.Fatalf("an event of an unknown type has ID %q", got)
	}
}

// TestTaskEndEventSizesItsFiles pins that a task-end's file lists are built
// at their final length, and stay nil when a task has no files.
func TestTaskEndEventSizesItsFiles(t *testing.T) {
	task := &wf.Task{ID: 1, Name: "t", Inputs: []string{"a", "b", "c"}, OutputParams: []string{"x", "y"}}
	res := &wf.TaskResult{Task: task, Outputs: map[string][]wf.FileInfo{
		"x": {{Path: "x1", SizeMB: 1}, {Path: "x2", SizeMB: 2}},
		"y": {{Path: "y1", SizeMB: 3}},
	}}
	ev := TaskEndEvent("wf", "n", res)
	if len(ev.Inputs) != 3 || cap(ev.Inputs) != 3 || ev.Inputs[1] != (FileEvent{Path: "b"}) {
		t.Fatalf("inputs %+v (cap %d)", ev.Inputs, cap(ev.Inputs))
	}
	want := []FileEvent{{Path: "x1", SizeMB: 1, Param: "x"}, {Path: "x2", SizeMB: 2, Param: "x"}, {Path: "y1", SizeMB: 3, Param: "y"}}
	if !reflect.DeepEqual(ev.Outputs, want) || cap(ev.Outputs) != 3 {
		t.Fatalf("outputs %+v (cap %d), want %+v", ev.Outputs, cap(ev.Outputs), want)
	}
	bare := TaskEndEvent("wf", "n", &wf.TaskResult{Task: &wf.Task{ID: 2, OutputParams: []string{"x"}}})
	if bare.Inputs != nil || bare.Outputs != nil {
		t.Fatalf("a task without files got %+v and %+v", bare.Inputs, bare.Outputs)
	}
}
