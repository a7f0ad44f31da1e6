package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hiway/internal/provenance"
)

// syntheticRun builds a run record holding a tasks-long chain's provenance
// (a start and an end event per task, under a run-private path root) without
// executing anything; its last output is <root>/f<tasks>. The run is not yet
// terminal and not yet known to any server.
func syntheticRun(name string, tasks int) (*Run, []provenance.Event) {
	id := "alpha-" + name
	root := "/svc/alpha/" + name
	var evs []provenance.Event
	for k := 1; k <= tasks; k++ {
		sig := fmt.Sprintf("stage%d", k%4)
		evs = append(evs,
			provenance.Event{Type: provenance.TaskStart,
				Timestamp: float64(k), WorkflowID: id, TaskID: int64(k), Signature: sig},
			provenance.Event{Type: provenance.TaskEnd,
				Timestamp: float64(k) + 0.5, WorkflowID: id, TaskID: int64(k), Signature: sig, DurationSec: 0.5,
				MemoHit: k%5 == 0, MemoSource: "alpha-seed", CPUSeconds: 2,
				Inputs:  []provenance.FileEvent{{Path: fmt.Sprintf("%s/f%d", root, k-1), SizeMB: 8}},
				Outputs: []provenance.FileEvent{{Path: fmt.Sprintf("%s/f%d", root, k), SizeMB: 8}}})
	}
	r := &Run{ID: id, Tenant: "alpha", Name: name, prov: provenance.NewMemStore(),
		done: make(chan struct{}), state: StateRunning}
	return r, evs
}

// admit registers a synthetic run as admitted, as dispatchLocked would.
func (s *Server) admit(r *Run) {
	s.runs.Store(r.ID, r)
	s.mu.Lock()
	s.admitted = append(s.admitted, r)
	s.mu.Unlock()
}

// injectTerminalRuns gives the server n more finished synthetic runs of 45
// tasks (90 events) each, numbered from its current admission count.
func injectTerminalRuns(tb testing.TB, s *Server, n int) {
	tb.Helper()
	for base := len(s.admittedRuns()); n > 0; n-- {
		r, evs := syntheticRun(fmt.Sprintf("syn%05d", base), 45)
		base++
		if err := r.prov.AppendBatch(evs); err != nil {
			tb.Fatal(err)
		}
		r.state = StateSucceeded
		close(r.done)
		s.admit(r)
	}
}

// flushed returns the trace FlushProvenance writes right now.
func flushed(tb testing.TB, s *Server) *provenance.MemStore {
	tb.Helper()
	dst := provenance.NewMemStore()
	if _, err := s.FlushProvenance(dst); err != nil {
		tb.Fatal(err)
	}
	return dst
}

// requireAgreesWithFlush asks the server's long-lived index and an index
// built from scratch over the flushed trace the same questions.
func requireAgreesWithFlush(t *testing.T, s *Server, queries []string) {
	t.Helper()
	fresh := flushed(t, s)
	for _, qs := range queries {
		q, err := provenance.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := s.queryProvenance(q)
		want, wantErr := provenance.RunQuery(fresh, q)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: server answered %q (%v), a fresh index %q (%v)", qs, got, gotErr, want, wantErr)
		}
	}
	var pr ProvenanceResponse
	if err := json.Unmarshal(get(t, s.Handler(), "/v1/provenance").Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	evs, err := fresh.Events()
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := range evs {
		if evs[i].MemoHit {
			hits++
		}
	}
	if pr.Events != len(evs) || pr.MemoHits != hits {
		t.Fatalf("summary %+v, flushed trace has %d events and %d memo hits", pr, len(evs), hits)
	}
}

// TestProvenanceIndexFoldsEachEventOnce pins the catch-up discipline: every
// query folds exactly what the runs appended since the last one — a run
// caught half-written included — so the folded total always equals the
// events the server holds, a repeat query folds nothing, and the answers
// equal a from-scratch index's at every step.
func TestProvenanceIndexFoldsEachEventOnce(t *testing.T) {
	s, err := NewServer(ServerConfig{Nodes: 2}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	held := func() int {
		n := 0
		for _, r := range s.admittedRuns() {
			n += r.prov.Len()
		}
		return n
	}
	requireFolded := func(when string, wantDelta int64) {
		t.Helper()
		before := s.prov.foldedC.Value()
		if rec := get(t, s.Handler(), "/v1/provenance?q=memo-hits"); rec.Code != http.StatusOK {
			t.Fatalf("%s: memo-hits: %d", when, rec.Code)
		}
		events, _ := s.prov.ix.Counts()
		if got := s.prov.foldedC.Value(); got-before != wantDelta || got != int64(held()) || events != held() {
			t.Fatalf("%s: folded %d more (want %d); total folded %d, indexed %d, held %d",
				when, got-before, wantDelta, got, events, held())
		}
		if got := s.prov.indexedG.Value(); got != float64(held()) {
			t.Fatalf("%s: indexed-events gauge %v, held %d", when, got, held())
		}
	}
	requireFolded("empty server", 0)

	// Real runs, queried once they are done, then again.
	for i := 0; i < 3; i++ {
		if rec := postJSON(t, s.Handler(), "/v1/workflows", workloadSubmission("alpha", fmt.Sprintf("w%03d", i))); rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: got %d", i, rec.Code)
		}
	}
	for _, r := range s.runs.All() {
		<-r.Done()
	}
	requireFolded("after three runs", int64(held()))
	requireFolded("repeat", 0)

	// A run caught mid-write between two terminal ones: the query folds its
	// first half now and only the rest later.
	live, evs := syntheticRun("live", 40)
	half := len(evs) / 2
	_ = live.prov.AppendBatch(evs[:half])
	s.admit(live)
	injectTerminalRuns(t, s, 2)
	requireFolded("half a run and two whole ones", int64(half+2*90))
	queries := []string{"lineage /svc/alpha/live/f40", "lineage /svc/alpha/live/f20", "lineage /svc/alpha/w001/out/sample000/annotated.vcf",
		"memo-hits", "memo-hits alpha-live", "diff alpha-live alpha-syn00004", "diff alpha-live alpha-live", "diff alpha-live nope"}
	requireAgreesWithFlush(t, s, queries)
	self, err := provenance.ParseQuery("diff alpha-live alpha-live")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.queryProvenance(self); err != nil { // the fresh index agreed, so it succeeded too
		t.Fatalf("a run diffed against itself: %v", err)
	}
	_ = live.prov.AppendBatch(evs[half:])
	close(live.done)
	requireFolded("the other half", int64(len(evs)-half))
	requireFolded("repeat", 0)
	requireAgreesWithFlush(t, s, queries)
	if s.prov.settled != len(s.admittedRuns()) {
		t.Fatalf("settled %d of %d terminal runs", s.prov.settled, len(s.admittedRuns()))
	}
	const countLine = "hiway_serve_provenance_query_seconds_count "
	if metrics := get(t, s.Handler(), "/metrics").Body.String(); !strings.Contains(metrics, countLine) || strings.Contains(metrics, countLine+"0\n") {
		t.Fatal("query histogram never observed")
	}
	waitDrained(t, s)
}

// provGate parks admitted runs until release is closed and reports when
// target of them are parked, so queries provably race in-flight runs.
type provGate struct {
	mu      sync.Mutex
	n       int
	target  int
	reached chan struct{}
	release chan struct{}
}

func (g *provGate) OnQueued(now float64, tenant, id string)                       {}
func (g *provGate) OnRejected(now float64, tenant, id string, retryAfter float64) {}
func (g *provGate) OnFinished(now float64, tenant, id string, succeeded bool)     {}
func (g *provGate) OnAdmitted(now float64, tenant, id string) {
	g.mu.Lock()
	g.n++
	if g.n == g.target {
		close(g.reached)
	}
	g.mu.Unlock()
	<-g.release
}

// TestProvenanceQueriesRaceInFlightRuns hammers every query form from
// several goroutines while 100+ runs are in flight and finishing (run it
// under -race), then requires the index those queries built up piecemeal to
// answer exactly like one built from the drained trace.
func TestProvenanceQueriesRaceInFlightRuns(t *testing.T) {
	const runs = 120
	gate := &provGate{target: 100, reached: make(chan struct{}), release: make(chan struct{})}
	s, err := NewServer(ServerConfig{Nodes: 2, MaxConcurrent: runs, MaxQueue: runs, Memo: true, Hook: gate}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 0; i < runs; i++ {
		sub := workloadSubmission([]string{"alpha", "beta"}[i%2], fmt.Sprintf("w%03d", i))
		if i%10 == 0 {
			// Past the provenance manager's 128-event flush interval, so a
			// query can catch the buffer between two flushes.
			sub.Workload.Samples = 6
		}
		if rec := postJSON(t, h, "/v1/workflows", sub); rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: got %d (%s)", i, rec.Code, rec.Body.String())
		}
	}
	select {
	case <-gate.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("100 runs never in flight together")
	}
	queries := []string{"lineage /svc/alpha/w000/out/sample000/annotated.vcf", "lineage /svc/beta/w001/out/sample000/annotated.vcf",
		"memo-hits", "memo-hits beta-w001", "diff alpha-w000 beta-w001", ""}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := "/v1/provenance"
				if q := queries[i%len(queries)]; q != "" {
					path += "?q=" + url.QueryEscape(q)
				}
				// A diff of runs that have not started yet is a 422.
				if rec := get(t, h, path); rec.Code != http.StatusOK && rec.Code != http.StatusUnprocessableEntity {
					t.Errorf("%s: %d (%s)", path, rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	close(gate.release)
	waitDrained(t, s)
	close(stop)
	wg.Wait()
	requireAgreesWithFlush(t, s, queries[:len(queries)-1])
	if events, _ := s.prov.ix.Counts(); int64(events) != s.prov.foldedC.Value() {
		t.Fatalf("indexed %d events, folded %d", events, s.prov.foldedC.Value())
	}
}

// TestCaughtUpQueryCostIgnoresRetainedRuns: once the index is caught up, a
// lineage query allocates for its answer only, however many terminal runs
// the server holds. (The 2% allowed is fmt's buffer pool, which -race
// empties at random; one allocation per retained run would be +160%.)
func TestCaughtUpQueryCostIgnoresRetainedRuns(t *testing.T) {
	s, err := NewServer(ServerConfig{}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	q := provenance.Query{Op: provenance.OpLineage, Path: "/svc/alpha/syn00007/f45"}
	measure := func() float64 {
		if _, err := s.queryProvenance(q); err != nil { // catch up
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if out, err := s.queryProvenance(q); err != nil || len(out) == 0 {
				t.Fatalf("lineage: %q, %v", out, err)
			}
		})
	}
	injectTerminalRuns(t, s, 100)
	at100 := measure()
	injectTerminalRuns(t, s, 900)
	if at1000 := measure(); at1000 > at100*1.02 {
		t.Fatalf("caught-up lineage query: %v allocs at 100 runs, %v at 1,000", at100, at1000)
	}
}

// TestFlushProvenanceBytesUnchanged holds the drain-time trace to the bytes
// the replaced flush wrote: per-run copies stably sorted by (timestamp,
// admission index).
func TestFlushProvenanceBytesUnchanged(t *testing.T) {
	s, err := NewServer(ServerConfig{Nodes: 2, Memo: true}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if rec := postJSON(t, s.Handler(), "/v1/workflows", workloadSubmission([]string{"alpha", "beta"}[i%2], fmt.Sprintf("w%03d", i))); rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: got %d", i, rec.Code)
		}
	}
	waitDrained(t, s)
	type tagged struct {
		run int
		ev  provenance.Event
	}
	var all []tagged
	for i, r := range s.admittedRuns() {
		evs, _ := r.prov.Events()
		for _, ev := range evs {
			all = append(all, tagged{i, ev})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].ev.Timestamp != all[b].ev.Timestamp {
			return all[a].ev.Timestamp < all[b].ev.Timestamp
		}
		return all[a].run < all[b].run
	})
	var want, got bytes.Buffer
	for _, tg := range all {
		b, _ := json.Marshal(tg.ev)
		want.Write(append(b, '\n'))
	}
	for _, ev := range s.MergedProvenance() {
		b, _ := json.Marshal(ev)
		got.Write(append(b, '\n'))
	}
	if want.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("flushed JSONL differs from the stable-sort merge (%d vs %d bytes)", got.Len(), want.Len())
	}
}

// BenchmarkServeProvenanceQuery times GET /v1/provenance's backend on a
// server holding n terminal runs of 90 events: "first" is the query that
// folds all of them, "caught-up" every later one.
func BenchmarkServeProvenanceQuery(b *testing.B) {
	for _, n := range []int{100, 700, 2800} {
		q := provenance.Query{Op: provenance.OpLineage, Path: fmt.Sprintf("/svc/alpha/syn%05d/f45", n/2)}
		ask := func(b *testing.B, s *Server) {
			if out, err := s.queryProvenance(q); err != nil || len(out) == 0 {
				b.Fatalf("lineage: %q, %v", out, err)
			}
		}
		b.Run(fmt.Sprintf("%d/first", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := NewServer(ServerConfig{}, serveProfiles())
				if err != nil {
					b.Fatal(err)
				}
				injectTerminalRuns(b, s, n)
				b.StartTimer()
				ask(b, s)
			}
		})
		b.Run(fmt.Sprintf("%d/caught-up", n), func(b *testing.B) {
			s, err := NewServer(ServerConfig{}, serveProfiles())
			if err != nil {
				b.Fatal(err)
			}
			injectTerminalRuns(b, s, n)
			ask(b, s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ask(b, s)
			}
		})
	}
}
