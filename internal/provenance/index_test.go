package provenance

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// genRuns builds a seeded multi-run trace the way a server holds one: a
// stream per run, in admission order. All runs draw paths from one layered
// universe, so the same path is produced by several runs (and by retried
// attempts within one), timestamps come from a handful of integers so ties
// across and within runs are the rule, and even seeds keep fan-in at one so
// their lineages are chains with nothing shared. Files only ever depend on
// lower layers: no cycles.
func genRuns(seed int64) (runs [][]Event, paths []string) {
	rng := rand.New(rand.NewSource(seed))
	const layers, width = 5, 3
	path := func(l, i int) string { return fmt.Sprintf("/f/L%d/%d", l, i) }
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			paths = append(paths, path(l, i))
		}
	}
	size := func() float64 {
		if rng.Intn(4) == 0 {
			return 0 // zero-size files leave any earlier size standing
		}
		return float64(1 + rng.Intn(64))
	}
	maxFanIn := 1
	if seed%2 == 1 {
		maxFanIn = 3
	}
	monotone := seed%3 != 0
	nRuns := 2 + rng.Intn(5)
	for r := 0; r < nRuns; r++ {
		id := fmt.Sprintf("run-%d", r)
		now := float64(rng.Intn(3))
		tick := func() float64 {
			if monotone {
				now += float64(rng.Intn(2))
			} else {
				now = float64(rng.Intn(6))
			}
			return now
		}
		evs := []Event{{Type: WorkflowStart, Timestamp: tick(), WorkflowID: id}}
		for task, n := int64(1), 3+rng.Intn(10); task <= int64(n); task++ {
			l := 1 + rng.Intn(layers-1)
			ev := Event{
				Type: TaskEnd, WorkflowID: id, TaskID: task,
				Signature:   fmt.Sprintf("sig%d", rng.Intn(4)),
				DurationSec: float64(rng.Intn(20)), CPUSeconds: float64(rng.Intn(40)),
			}
			for k := rng.Intn(maxFanIn + 1); k > 0; k-- {
				ev.Inputs = append(ev.Inputs, FileEvent{Path: path(rng.Intn(l), rng.Intn(width)), SizeMB: size()})
			}
			for k := 1 + rng.Intn(2); k > 0; k-- {
				ev.Outputs = append(ev.Outputs, FileEvent{Path: path(l, rng.Intn(width)), SizeMB: size()})
			}
			if rng.Intn(4) == 0 {
				ev.MemoHit, ev.DurationSec = true, 0
				if rng.Intn(3) > 0 {
					ev.MemoSource = fmt.Sprintf("run-%d", rng.Intn(nRuns))
				}
			}
			evs = append(evs, Event{Type: TaskStart,
				Timestamp: tick(), WorkflowID: id, TaskID: task, Signature: ev.Signature})
			if rng.Intn(5) == 0 {
				// A failed first attempt, then the retry that produces the files.
				failed := ev
				failed.Timestamp, failed.ExitCode, failed.Outputs, failed.MemoHit = tick(), 1, nil, false
				evs = append(evs, failed)
				ev.Attempt = 1
			}
			ev.Timestamp = tick()
			evs = append(evs, ev)
		}
		evs = append(evs, Event{Type: WorkflowEnd, Timestamp: tick(), WorkflowID: id,
			DurationSec: now, Succeeded: true})
		runs = append(runs, evs)
	}
	return runs, paths
}

// indexEvents folds one stream the way IndexStore folds a store's.
func indexEvents(evs []Event) *Index {
	ix := NewIndex()
	for i := range evs {
		ix.fold(MergeKey{Pos: int32(i)}, &evs[i])
	}
	return ix
}

// answers renders every query the differential test compares, in one string.
func answers(ix *Index, paths []string, runs int) string {
	var sb strings.Builder
	for _, p := range paths {
		sb.WriteString(RenderLineage(ix.Lineage(p)))
	}
	sb.WriteString(RenderMemoHits(ix.MemoHits("")))
	for r := 0; r < runs; r++ {
		sb.WriteString(RenderMemoHits(ix.MemoHits(fmt.Sprintf("run-%d", r))))
	}
	events, hits := ix.Counts()
	fmt.Fprintf(&sb, "%d events, %d memo hits\n", events, hits)
	return sb.String()
}

// TestIndexMatchesMergeThenScan drives the Index and the replaced
// merge-then-scan implementation over seeded traces: every answer must be
// the same text, whatever order the runs — or halves of runs — were folded
// in.
func TestIndexMatchesMergeThenScan(t *testing.T) {
	shared, chains := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		runs, paths := genRuns(seed)
		merged := refMerge(runs)

		inOrder := NewIndex()
		for r, evs := range runs {
			inOrder.Fold(r, 0, evs)
		}
		// The store path (hiway prov -query): position in the one stream is
		// the whole key.
		fromStore := indexEvents(merged)

		for _, p := range paths {
			ref := refLineage(merged, p)
			want := refRenderLineage(ref)
			for name, ix := range map[string]*Index{"folded": inOrder, "store": fromStore} {
				n := ix.Lineage(p)
				if got := refRenderLineage(n); got != want {
					t.Fatalf("seed %d, %s index, lineage %s unfolds to\n%s\nreference:\n%s", seed, name, p, got, want)
				}
				if refSharesProducedFile(ref) {
					shared++
					continue
				}
				chains++
				if got := RenderLineage(n); got != want {
					t.Fatalf("seed %d, %s index, lineage %s (nothing shared):\n%s\nreference:\n%s", seed, name, p, got, want)
				}
			}
		}
		for r := -1; r < len(runs); r++ {
			run := ""
			if r >= 0 {
				run = fmt.Sprintf("run-%d", r)
			}
			want := RenderMemoHits(refMemoHits(merged, run))
			if got := RenderMemoHits(inOrder.MemoHits(run)); got != want {
				t.Fatalf("seed %d, memo-hits %q:\n%s\nreference:\n%s", seed, run, got, want)
			}
			if got := RenderMemoHits(fromStore.MemoHits(run)); got != want {
				t.Fatalf("seed %d, store index, memo-hits %q:\n%s\nreference:\n%s", seed, run, got, want)
			}
		}
		wantN, wantHits := refCounts(merged)
		if n, hits := inOrder.Counts(); n != wantN || hits != wantHits {
			t.Fatalf("seed %d: counts %d/%d, reference %d/%d", seed, n, hits, wantN, wantHits)
		}

		// Folds commute: shuffled run orders, and a run folded in two halves
		// around all the others, leave an index that answers identically.
		want := answers(inOrder, paths, len(runs))
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 4; trial++ {
			ix := NewIndex()
			order := rng.Perm(len(runs))
			split := order[0]
			half := len(runs[split]) / 2
			if trial == 0 {
				// Second half first: a fold may even run backwards in time.
				ix.Fold(split, half, runs[split][half:])
				for _, r := range order[1:] {
					ix.Fold(r, 0, runs[r])
				}
				ix.Fold(split, 0, runs[split][:half])
			} else {
				ix.Fold(split, 0, runs[split][:half])
				_ = ix.MemoHits("") // a query between folds must not pin an order
				for _, r := range order[1:] {
					ix.Fold(r, 0, runs[r])
				}
				ix.Fold(split, half, runs[split][half:])
			}
			if got := answers(ix, paths, len(runs)); got != want {
				t.Fatalf("seed %d, fold order %v split at %d: answers differ\n%s\nin-order:\n%s", seed, order, half, got, want)
			}
		}
	}
	if shared == 0 || chains == 0 {
		t.Fatalf("generator lost a case: %d lineages with a shared file, %d without", shared, chains)
	}
}

// layeredTrace is a lanes-wide, layers-deep dataflow where every task reads
// the whole layer below: the number of root-to-leaf paths is lanes^layers.
func layeredTrace(layers, lanes int) (evs []Event, top string, files int) {
	path := func(l, i int) string { return fmt.Sprintf("/d/L%02d/%d", l, i) }
	id := int64(0)
	for l := 1; l <= layers; l++ {
		for i := 0; i < lanes; i++ {
			id++
			ev := Event{Type: TaskEnd, WorkflowID: "wf", TaskID: id, Signature: "step", Timestamp: float64(l),
				Outputs: []FileEvent{{Path: path(l, i), SizeMB: 1}}}
			for j := 0; j < lanes; j++ {
				ev.Inputs = append(ev.Inputs, FileEvent{Path: path(l-1, j), SizeMB: 1})
			}
			evs = append(evs, ev)
		}
	}
	return evs, path(layers, 0), (layers + 1) * lanes
}

// TestDeepLineageIsLinear pins the fix for lineage being exponential in DAG
// depth: 40 layers of 2 lanes (2^40 paths; the walk-every-path version takes
// 2 s and 120 MB at 20 layers) must answer at once, in about two lines per
// file.
func TestDeepLineageIsLinear(t *testing.T) {
	evs, top, files := layeredTrace(40, 2)
	st := NewMemStore()
	if err := st.AppendBatch(evs); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	out, err := RunQuery(st, Query{Op: OpLineage, Path: top})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Fatalf("lineage over %d files took %v", files, d)
	}
	lines := strings.Count(out, "\n")
	if lines > 2*files+1 {
		t.Fatalf("%d lines for %d files, want at most %d", lines, files, 2*files+1)
	}
	if !strings.Contains(out, " <- step task 1 @ wf (shown above)\n") {
		t.Fatalf("a file reached twice is not marked:\n%s", out)
	}
	// What is elided is exactly the repeats: unfolding a shallower instance
	// gives the reference text.
	evs, top, _ = layeredTrace(8, 2)
	if got, want := refRenderLineage(indexEvents(evs).Lineage(top)), refRenderLineage(refLineage(evs, top)); got != want {
		t.Fatal("8-layer lineage does not unfold to the reference tree")
	}
}

// allEvents returns a copy of every event in st.
func allEvents(tb testing.TB, st Store) []Event {
	tb.Helper()
	evs, err := st.Events()
	if err != nil {
		tb.Fatal(err)
	}
	return evs
}

// TestMemStoreScanIsStable pins the no-copy read: a scan taken before an
// append never sees it, even an append made from inside the scan, and the
// next scan from the returned position sees exactly the new events.
func TestMemStoreScanIsStable(t *testing.T) {
	st := NewMemStore()
	_ = st.Append(Event{Signature: "a"})
	var seen []string
	next := st.Scan(0, func(pos int, evs []Event) {
		for i := range evs {
			seen = append(seen, evs[i].Signature)
		}
		if st.Len() == 1 { // append once, so a scan that sees it still ends
			_ = st.AppendBatch([]Event{{Signature: "b"}, {Signature: "c"}})
		}
	})
	if next != 1 || len(seen) != 1 || seen[0] != "a" {
		t.Fatalf("scan saw %v and returned %d; want [a] and 1", seen, next)
	}
	seen = seen[:0]
	end := st.Scan(next, func(pos int, evs []Event) {
		if pos != 1 {
			t.Fatalf("resumed scan starts at %d, want 1", pos)
		}
		for i := range evs {
			seen = append(seen, evs[i].Signature)
		}
	})
	if end != 3 || strings.Join(seen, ",") != "b,c" {
		t.Fatalf("resumed scan saw %v and returned %d; want [b c] and 3", seen, end)
	}
}

// A run-filtered memo-hit query over many runs' hits allocates its answer
// once, at its size: in proportion to the run's own matches, however many
// hits the other runs hold. (The scan still visits every hit.)
func TestMemoHitsAllocatesItsAnswerOnce(t *testing.T) {
	const runs, perRun = 200, 20
	ix := NewIndex()
	for r := 0; r < runs; r++ {
		evs := make([]Event, perRun)
		for i := range evs {
			evs[i] = Event{Type: TaskEnd, Timestamp: float64(i), WorkflowID: fmt.Sprintf("run-%d", r),
				TaskID: int64(i + 1), Signature: "align", MemoHit: true, MemoSource: "run-0", CPUSeconds: 10}
		}
		ix.Fold(r, 0, evs)
	}
	_ = ix.MemoHits("") // sorts once
	var got []MemoAttribution
	allocs := testing.AllocsPerRun(10, func() { got = ix.MemoHits("run-7") })
	if len(got) != perRun || cap(got) != perRun || allocs != 1 {
		t.Fatalf("run-7's %d hits: %d answers in an array of %d, %.0f allocations; want %d, %d and 1",
			perRun, len(got), cap(got), allocs, perRun, perRun)
	}
	for i := range got {
		if got[i].WorkflowID != "run-7" || got[i].TaskID != int64(i+1) {
			t.Fatalf("answer %d is %+v", i, got[i])
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { got = ix.MemoHits("no-such-run") }); got != nil || allocs != 0 {
		t.Fatalf("a run with no hits: %d answers, %.0f allocations; want nil and none", len(got), allocs)
	}
	if got = ix.MemoHits(""); len(got) != runs*perRun || cap(got) != runs*perRun {
		t.Fatalf("all hits: %d answers in an array of %d, want %d", len(got), cap(got), runs*perRun)
	}
}
