package provenance

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
	if err := m.RecordTaskEnd("wf1", "snv", res, map[string]float64{"in.dat": 5}); err != nil {
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
	end := events[2]
	if end.Type != TaskEnd || len(end.Inputs) != 1 || end.Inputs[0].SizeMB != 5 ||
		len(end.Outputs) != 1 || end.Outputs[0].SizeMB != 10 {
		t.Fatalf("task-end event lost its file sizes: %+v", end)
	}
}

func TestLatestObservationWins(t *testing.T) {
	m, _ := NewManager(NewMemStore())
	m.RecordTaskEnd("wf", "w", sampleResult("tool", "n1", 100), nil)
	m.RecordTaskEnd("wf", "w", sampleResult("tool", "n1", 50), nil)
	if d, _ := m.LastRuntime("tool", "n1"); d != 50 {
		t.Fatalf("latest runtime = %g, want 50 (the paper uses the latest observation)", d)
	}
}

func TestMeanRuntimeAcrossNodes(t *testing.T) {
	m, _ := NewManager(NewMemStore())
	if _, ok := m.MeanRuntime("tool"); ok {
		t.Fatal("mean of nothing must be not-ok")
	}
	m.RecordTaskEnd("wf", "w", sampleResult("tool", "n1", 100), nil)
	m.RecordTaskEnd("wf", "w", sampleResult("tool", "n2", 200), nil)
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
			m1.RecordTaskEnd("wf1", "w", sampleResult("tool", "n1", 77), nil)
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
	// 90 events round up to the allocator's next size class, not to a chunk.
	if limit := 90 * evSize * 11 / 10; len(one.chunks) != 1 || cap(one.chunks[0]) != 90 || got > limit {
		t.Fatalf("one 90-event batch: %d chunks, %d bytes allocated; want one 90-event chunk and at most %d",
			len(one.chunks), got, limit)
	}
}

// TestWriteTraceRoundTrip pins the trace format: one json.Marshal line per
// event, in order, which ParseTrace reads back to the same events.
func TestWriteTraceRoundTrip(t *testing.T) {
	store := NewMemStore()
	m, _ := NewManager(store)
	m.RecordWorkflowStart("wf1", "demo", 0)
	m.RecordTaskEnd("wf1", "demo", sampleResult("tool", "n1", 10), map[string]float64{"in.dat": 5})
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
		b, _ := json.Marshal(ev)
		want.Write(append(b, '\n'))
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
		m.RecordTaskEnd("wf1", "demo", sampleResult("tool", "n1", float64(10+i)), nil)
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
	m2.RecordTaskEnd("wf2", "demo", sampleResult("tool", "n2", 99), nil)
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
		evs[i] = Event{ID: fmt.Sprint("e", i), TaskID: int64(i)}
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
		if got[i].ID != evs[i].ID {
			t.Fatalf("event %d is %s, want %s", i, got[i].ID, evs[i].ID)
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
	store.Append(Event{ID: "ok"})
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
			if err := st.Append(Event{ID: "after-the-crash"}); err != nil {
				t.Fatal(err)
			}
			st.Close()
			st = openDBStore(t, torn)
			got, err = st.Events()
			if err != nil || len(got) != len(first)+complete+1 || got[len(got)-1].ID != "after-the-crash" {
				t.Fatalf("cut at %d: after the next append %d events, %v", cut, len(got), err)
			}
			st.Close()
		}
	}
}

func TestTaskEndEventFields(t *testing.T) {
	res := sampleResult("varscan", "node-07", 60)
	res.Stdout = "ok"
	ev := TaskEndEvent("wfX", "snv", res, map[string]float64{"in.dat": 3})
	if ev.Type != TaskEnd || ev.Signature != "varscan" || ev.Node != "node-07" {
		t.Fatalf("event = %+v", ev)
	}
	if ev.DurationSec != 60 || ev.CPUSeconds != 30 || ev.Threads != 2 {
		t.Fatalf("profile = %+v", ev)
	}
	if len(ev.Inputs) != 1 || ev.Inputs[0].SizeMB != 3 {
		t.Fatalf("inputs = %+v", ev.Inputs)
	}
	if len(ev.Outputs) != 1 || ev.Outputs[0].Param != "out" {
		t.Fatalf("outputs = %+v", ev.Outputs)
	}
	if !strings.Contains(ev.ID, "wfX") {
		t.Fatalf("id = %q", ev.ID)
	}
}

// TestTaskEventIDsMatchTheirFormat pins the event IDs the record path builds
// with strconv to the fmt formats they replaced: "%s-task-%d" plus
// "-start" for a task-start, then "%s-a%d" for an attempt above 0.
func TestTaskEventIDsMatchTheirFormat(t *testing.T) {
	long := strings.Repeat("w", 80) // past the stack buffer
	for _, c := range []struct {
		wfID    string
		task    int64
		attempt int
	}{
		{"wf1", 1, 0},
		{"wf1", 7, 1},
		{"hiway-snv-00", 255, 0},
		{"hiway-snv-00", 256, 3},
		{"hiway-snv-00", 1 << 40, 12},
		{"100%-done %d %s", 42, 2},
		{"", 0, 0},
		{long, 99999, 7},
	} {
		start := fmt.Sprintf("%s-task-%d-start", c.wfID, c.task)
		end := fmt.Sprintf("%s-task-%d", c.wfID, c.task)
		if c.attempt > 0 {
			start = fmt.Sprintf("%s-a%d", start, c.attempt)
			end = fmt.Sprintf("%s-a%d", end, c.attempt)
		}
		m, _ := NewManager(NewMemStore())
		if err := m.RecordTaskStart(c.wfID, "n", &wf.Task{ID: c.task}, "node", c.attempt, 0); err != nil {
			t.Fatal(err)
		}
		res := &wf.TaskResult{Task: &wf.Task{ID: c.task}, Attempt: c.attempt}
		evs := allEvents(t, m.Store())
		if got := evs[0].ID; got != start {
			t.Errorf("task-start ID %q, want %q", got, start)
		}
		if got := TaskEndEvent(c.wfID, "n", res, nil).ID; got != end {
			t.Errorf("task-end ID %q, want %q", got, end)
		}
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
	ev := TaskEndEvent("wf", "n", res, map[string]float64{"b": 5})
	if len(ev.Inputs) != 3 || cap(ev.Inputs) != 3 || ev.Inputs[1] != (FileEvent{Path: "b", SizeMB: 5}) {
		t.Fatalf("inputs %+v (cap %d)", ev.Inputs, cap(ev.Inputs))
	}
	want := []FileEvent{{Path: "x1", SizeMB: 1, Param: "x"}, {Path: "x2", SizeMB: 2, Param: "x"}, {Path: "y1", SizeMB: 3, Param: "y"}}
	if !reflect.DeepEqual(ev.Outputs, want) || cap(ev.Outputs) != 3 {
		t.Fatalf("outputs %+v (cap %d), want %+v", ev.Outputs, cap(ev.Outputs), want)
	}
	bare := TaskEndEvent("wf", "n", &wf.TaskResult{Task: &wf.Task{ID: 2, OutputParams: []string{"x"}}}, nil)
	if bare.Inputs != nil || bare.Outputs != nil {
		t.Fatalf("a task without files got %+v and %+v", bare.Inputs, bare.Outputs)
	}
}
