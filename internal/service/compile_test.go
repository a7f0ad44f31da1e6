package service

import (
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hiway/internal/lang"
	"hiway/internal/workloads"
)

// TestTemplateSharedAcrossConcurrentRuns runs sixteen runs of one spec at
// once, all instantiated from one compiled entry, and the same runs one at a
// time on a second server: each concurrent run ends as its solo run did,
// provenance and all, and the entry is deep-equal to a fresh compile of the
// spec afterwards — no run wrote to it. Under -race it also shows that the
// runs read it without a lock.
func TestTemplateSharedAcrossConcurrentRuns(t *testing.T) {
	const runs = 16
	spec := WorkloadSpec{Kind: WorkloadSNV, Samples: 3, FilesPerSample: 4, FileSizeMB: 16, CPUSeconds: 10}
	reqs := make([]SubmitRequest, runs)
	for i := range reqs {
		reqs[i] = SubmitRequest{Tenant: []string{"alpha", "beta"}[i%2], Name: fmt.Sprintf("w%02d", i), Workload: &spec}
	}
	s, err := NewServer(ServerConfig{Nodes: 4, MaxConcurrent: runs, MaxQueue: runs}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, req := range reqs {
		if rec := postJSON(t, h, "/v1/workflows", req); rec.Code != http.StatusAccepted {
			t.Fatalf("%s: got %d (%s)", req.Name, rec.Code, rec.Body.String())
		}
	}
	waitDrained(t, s)
	if peak := s.PeakRunning(); peak < 2 {
		t.Fatalf("peak running %d: the runs did not overlap", peak)
	}
	solo, err := NewServer(ServerConfig{Nodes: 4, MaxConcurrent: 1}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	soloH := solo.Handler()
	for _, req := range reqs {
		want := runToTerminal(t, solo, soloH, req)
		got := s.Lookup(want.ID)
		gs, ws := got.Status(), want.Status()
		gs.SubmitAt, gs.AdmitAt, gs.EndAt, ws.SubmitAt, ws.AdmitAt, ws.EndAt = 0, 0, 0, 0, 0, 0
		gotEvents, _ := got.prov.Events()
		wantEvents, _ := want.prov.Events()
		if !reflect.DeepEqual(gs, ws) || !reflect.DeepEqual(gotEvents, wantEvents) {
			t.Fatalf("%s: concurrent %+v\nsolo %+v", want.ID, gs, ws)
		}
	}
	spec.setDefaults()
	var fresh compileTable
	if _, _, err := fresh.specRun("/svc/alpha/fresh", spec); err != nil {
		t.Fatal(err)
	}
	if got, want := s.compiled.entries[spec], fresh.entries[spec]; got == nil || !reflect.DeepEqual(got, want) {
		t.Fatal("after the runs the compiled entry differs from a fresh compile of its spec")
	}
}

// TestCompileTableIsBounded streams more distinct specs through one table
// than its bounds admit, first many small ones (the count bound) and then a
// few of 30,000 tasks (the task bound). What the table retains, in live
// bytes, stays within what the bounds admit at the bytes per task one
// entry of that size costs.
func TestCompileTableIsBounded(t *testing.T) {
	perTask := func(spec WorkloadSpec) float64 {
		var c compileTable
		before := liveHeap()
		if _, _, err := c.specRun("/svc/t/one", spec); err != nil {
			t.Fatal(err)
		}
		retained := liveHeap() - before
		runtime.KeepAlive(&c)
		return float64(retained) / float64(c.tasks)
	}
	for _, phase := range []struct {
		name  string
		specs int
		spec  WorkloadSpec // FileSizeMB tells the specs apart
	}{
		{"count", 3*maxCompiled + 7, WorkloadSpec{Kind: WorkloadSNV, Samples: 2, FilesPerSample: 2}},
		{"tasks", 6, WorkloadSpec{Kind: WorkloadSNV, Samples: 3000, FilesPerSample: 7}},
	} {
		spec := phase.spec
		spec.FileSizeMB = 1
		spec.setDefaults()
		tasks := spec.Samples * (spec.FilesPerSample + 3)
		bytes := perTask(spec)
		admitted := min(maxCompiled, maxCompiledTasks/tasks)
		var c compileTable
		before := liveHeap()
		for i := 0; i < phase.specs; i++ {
			spec.FileSizeMB = float64(1 + i)
			if _, _, err := c.specRun("/svc/t/run", spec); err != nil {
				t.Fatal(err)
			}
		}
		retained := liveHeap() - before
		runtime.KeepAlive(&c)
		bound := 1.25 * bytes * float64(admitted*tasks)
		t.Logf("%s: %d specs of %d tasks, %d kept; %d bytes retained (%.0f per task), bound %.0f",
			phase.name, phase.specs, tasks, len(c.entries), retained, bytes, bound)
		if len(c.entries) > admitted || c.tasks > maxCompiledTasks || float64(retained) > bound {
			t.Fatalf("%s: the table keeps %d entries of %d tasks in %d bytes; its bounds admit %d entries, %.0f bytes",
				phase.name, len(c.entries), c.tasks, retained, admitted, bound)
		}
	}
}

// TestOversizedSpecIsRefused: a spec whose SNV graph would pass the task cap
// the CWL frontend applies is a 400, whatever the product of its fields, and
// nothing is built for it — a graph of 2^62 tasks could not be.
func TestOversizedSpecIsRefused(t *testing.T) {
	s, err := NewServer(ServerConfig{}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, spec := range []WorkloadSpec{
		{Samples: 1 << 60, FilesPerSample: 1},
		{Samples: 2, FilesPerSample: math.MaxInt},
		{Samples: math.MaxInt, FilesPerSample: math.MaxInt},
		{Samples: 100_000/10 + 1, FilesPerSample: 7},
	} {
		rec := postJSON(t, h, "/v1/workflows", SubmitRequest{Tenant: "alpha", Name: "big", Workload: &spec})
		if rec.Code != http.StatusBadRequest || !strings.Contains(decodeError(t, rec).Error, "tasks") {
			t.Fatalf("%+v: got %d (%s), want a 400 naming the task cap", spec, rec.Code, rec.Body.String())
		}
	}
	spec := WorkloadSpec{Kind: WorkloadSNV, Samples: 100_000 / 10, FilesPerSample: 7}
	if err := spec.validate(); err != nil {
		t.Fatalf("a spec of exactly 100,000 tasks is refused: %v", err)
	}
	if _, err := NewServer(ServerConfig{}, []TenantProfile{{Name: "a", Workload: WorkloadSpec{Samples: 1 << 40}}}); err == nil {
		t.Fatal("a tenant profile over the task cap is accepted")
	}
	if len(s.compiled.entries) != 0 {
		t.Fatalf("refused submissions left %d compiled entries", len(s.compiled.entries))
	}
}

// blockHook holds every admitted run in OnAdmitted until release closes.
type blockHook struct{ release chan struct{} }

func (b *blockHook) OnQueued(now float64, tenant, id string)                       {}
func (b *blockHook) OnRejected(now float64, tenant, id string, retryAfter float64) {}
func (b *blockHook) OnFinished(now float64, tenant, id string, succeeded bool)     {}
func (b *blockHook) OnAdmitted(now float64, tenant, id string)                     { <-b.release }

// TestRefusedSubmissionBuildsNothing: a submission is instantiated only when
// its run launches, so one refused with 429 costs its validation and its
// answer, never its graph — here a 352-task spec the server has compiled
// already, whose instance alone is about 260 KB.
func TestRefusedSubmissionBuildsNothing(t *testing.T) {
	const bound = 512 // bytes per refused submission
	hook := &blockHook{release: make(chan struct{})}
	s, err := NewServer(ServerConfig{Nodes: 4, MaxConcurrent: 1, MaxQueue: 1, Hook: hook}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	spec := WorkloadSpec{Kind: WorkloadSNV, Samples: 32, FilesPerSample: 8, FileSizeMB: 16, CPUSeconds: 10}
	s.compiled.specRun("/svc/alpha/warm", spec)
	for _, name := range []string{"running", "queued"} {
		if code, body := s.submit(&SubmitRequest{Tenant: "alpha", Name: name, Workload: &spec}); code != http.StatusAccepted {
			t.Fatalf("%s: got %d (%v)", name, code, body)
		}
	}
	const refused = 200
	reqs := make([]SubmitRequest, refused)
	for i := range reqs {
		reqs[i] = SubmitRequest{Tenant: "alpha", Name: fmt.Sprintf("r%03d", i), Workload: &spec}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range reqs {
		if code, body := s.submit(&reqs[i]); code != http.StatusTooManyRequests {
			t.Fatalf("%s: got %d (%v), want 429", reqs[i].Name, code, body)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / refused
	t.Logf("%.0f bytes per refused submission", per)
	if per > bound {
		t.Fatalf("a refused submission allocates %.0f bytes, over %d: it built its graph", per, bound)
	}
	// A bad one is still a 400 before it could be a 429.
	bad := SubmitRequest{Tenant: "alpha", Name: "bad", Workload: &WorkloadSpec{Kind: "bogus"}}
	if code, _ := s.submit(&bad); code != http.StatusBadRequest {
		t.Fatalf("an invalid submission under backpressure got %d, want 400", code)
	}
	close(hook.release)
	waitDrained(t, s)
}

// TestCWLDecodeErrorSurfacesAtLaunch: a CWL source that fails to decode is
// accepted (202) and its run fails on the decode error, as when every run
// decoded its own source; it is not kept, while a source that decodes is
// kept once for every run that submits it.
func TestCWLDecodeErrorSurfacesAtLaunch(t *testing.T) {
	s, err := NewServer(ServerConfig{Nodes: 4}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	bad := SubmitRequest{Tenant: "alpha", Name: "bad", Lang: lang.CWL, Source: `{"cwlVersion": "v1.2", "class": 7}`}
	if rec := postJSON(t, h, "/v1/workflows", bad); rec.Code != http.StatusAccepted {
		t.Fatalf("got %d (%s), want 202", rec.Code, rec.Body.String())
	}
	r := s.Lookup("alpha-bad")
	select {
	case <-r.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("the run did not end")
	}
	if st := r.Status(); st.State != StateFailed || !strings.HasPrefix(st.Error, "cwl:") {
		t.Fatalf("state %q, error %q: want failed on the decode error", st.State, st.Error)
	}
	src, inputs := workloads.SNVCWL(workloads.SNVConfig{Samples: 1, FilesPerSample: 2, FileSizeMB: 16, RefLocal: true})
	for _, name := range []string{"c1", "c2"} {
		req := SubmitRequest{Tenant: "alpha", Name: name, Source: src}
		for _, in := range inputs {
			req.Inputs = append(req.Inputs, InputSpec{Path: in.Path, SizeMB: in.SizeMB})
		}
		runToTerminal(t, s, h, req)
	}
	if len(s.compiled.entries) != 1 || s.compiled.entries[src] == nil {
		t.Fatalf("the table holds %d entries; want the one document that decoded", len(s.compiled.entries))
	}
	waitDrained(t, s)
}
