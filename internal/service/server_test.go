package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hiway/internal/provenance"
)

// serveProfiles is a small two-tenant mix with arrival rates, usable by
// both the live server and the deterministic replay.
func serveProfiles() []TenantProfile {
	return []TenantProfile{
		{Name: "alpha", Weight: 2, MaxContainers: 8, RatePerSec: 0.05,
			Workload: WorkloadSpec{Kind: WorkloadSNV, FileSizeMB: 16, CPUSeconds: 10}},
		{Name: "beta", Weight: 1, MaxContainers: 4, RatePerSec: 0.03, Burst: 2,
			Workload: WorkloadSpec{Kind: WorkloadSNV, FilesPerSample: 3, FileSizeMB: 16, CPUSeconds: 10}},
	}
}

// postJSON drives one request through the server's real handler chain.
func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func decodeError(t *testing.T, rec *httptest.ResponseRecorder) ErrorResponse {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("decoding error response %q: %v", rec.Body.String(), err)
	}
	return er
}

func workloadSubmission(tenant, name string) SubmitRequest {
	return SubmitRequest{Tenant: tenant, Name: name,
		Workload: &WorkloadSpec{Kind: WorkloadSNV, FileSizeMB: 16, CPUSeconds: 10}}
}

// waitDrained drains the server and fails the test if it does not settle.
func waitDrained(t *testing.T, s *Server) {
	t.Helper()
	s.StartDrain()
	select {
	case <-s.Drained():
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain")
	}
	s.Wait()
}

func TestServerRejectsBadSubmissions(t *testing.T) {
	s, err := NewServer(ServerConfig{}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{"tenant": `, http.StatusBadRequest},
		{"missing tenant", `{"name":"w1","workload":{"kind":"snv"}}`, http.StatusBadRequest},
		{"unknown tenant", `{"tenant":"nobody","name":"w1","workload":{"kind":"snv"}}`, http.StatusForbidden},
		{"bad run name", `{"tenant":"alpha","name":"../etc","workload":{"kind":"snv"}}`, http.StatusBadRequest},
		{"no payload", `{"tenant":"alpha","name":"w1"}`, http.StatusBadRequest},
		{"both payloads", `{"tenant":"alpha","name":"w1","source":"x","lang":"trace","workload":{"kind":"snv"}}`, http.StatusBadRequest},
		{"unknown lang", `{"tenant":"alpha","name":"w1","source":"x","lang":"perl"}`, http.StatusBadRequest},
		{"unknown workload kind", `{"tenant":"alpha","name":"w1","workload":{"kind":"mapreduce"}}`, http.StatusBadRequest},
		{"unknown policy", `{"tenant":"alpha","name":"w1","policy":"random","workload":{"kind":"snv"}}`, http.StatusBadRequest},
		{"fcfs alias only the engine takes", `{"tenant":"alpha","name":"w1","policy":"greedy","workload":{"kind":"snv"}}`, http.StatusBadRequest},
		{"bad input spec", `{"tenant":"alpha","name":"w1","workload":{"kind":"snv"},"inputs":[{"path":"","sizeMB":0}]}`, http.StatusBadRequest},
		// 1e12 MB is ~7.8e9 blocks of the tier's 128 MB: over hdfs.MaxBlocksPerFile.
		{"input over the block bound", `{"tenant":"alpha","name":"w1","workload":{"kind":"snv"},"inputs":[{"path":"/big","sizeMB":1e12}]}`, http.StatusBadRequest},
		{"workload files over the block bound", `{"tenant":"alpha","name":"w1","workload":{"kind":"snv","fileSizeMB":1e12}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v1/workflows", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: got %d want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
		if er := decodeError(t, rec); er.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
	if got := int(s.acceptedC.Value()); got != 0 {
		t.Fatalf("rejected submissions were accepted: %d", got)
	}
}

func TestServerRunsWorkloadToCompletion(t *testing.T) {
	s, err := NewServer(ServerConfig{Nodes: 4}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	rec := postJSON(t, h, "/v1/workflows", workloadSubmission("alpha", "w000"))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: got %d (%s)", rec.Code, rec.Body.String())
	}
	var resp SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != "alpha-w000" || resp.State != StateQueued {
		t.Fatalf("submit response: %+v", resp)
	}

	run := s.Lookup(resp.ID)
	if run == nil {
		t.Fatal("run not registered")
	}
	select {
	case <-run.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish")
	}

	st := get(t, h, "/v1/workflows/alpha-w000")
	if st.Code != http.StatusOK {
		t.Fatalf("status: got %d", st.Code)
	}
	var status RunStatus
	if err := json.Unmarshal(st.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.State != StateSucceeded {
		t.Fatalf("run state %q, error %q", status.State, status.Error)
	}
	if len(status.CompletedTasks) == 0 || status.Tasks != len(status.CompletedTasks) {
		t.Fatalf("completed tasks: %+v", status)
	}
	if status.MakespanSec <= 0 {
		t.Fatalf("makespan %v", status.MakespanSec)
	}
	for _, out := range status.Outputs {
		if !strings.HasPrefix(out, "/svc/alpha/w000/") {
			t.Fatalf("output %q not rebased under the run prefix", out)
		}
	}

	// Duplicate name → 409.
	if rec := postJSON(t, h, "/v1/workflows", workloadSubmission("alpha", "w000")); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate: got %d", rec.Code)
	}
	// Unknown run → 404.
	if rec := get(t, h, "/v1/workflows/alpha-w999"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown run: got %d", rec.Code)
	}

	// List shows the run terminal.
	lr := get(t, h, "/v1/workflows")
	var list struct {
		Runs []RunStatus `json:"runs"`
	}
	if err := json.Unmarshal(lr.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 1 || list.Runs[0].ID != "alpha-w000" {
		t.Fatalf("list: %+v", list)
	}

	// SSE replay of a finished run carries the full lifecycle.
	ev := get(t, h, "/v1/workflows/alpha-w000/events")
	if ev.Code != http.StatusOK {
		t.Fatalf("events: got %d", ev.Code)
	}
	stream := ev.Body.String()
	for _, typ := range []string{EventQueued, EventAdmitted, EventProgress, EventFinished} {
		if !strings.Contains(stream, "event: "+typ+"\n") {
			t.Fatalf("stream missing %q:\n%s", typ, stream)
		}
	}

	// /metrics exposes the serve registry; /healthz answers.
	mr := get(t, h, "/metrics")
	if mr.Code != http.StatusOK || !strings.Contains(mr.Body.String(), "hiway_serve_completed_total 1") {
		t.Fatalf("metrics: %d\n%s", mr.Code, mr.Body.String())
	}
	if hr := get(t, h, "/healthz"); hr.Code != http.StatusOK {
		t.Fatalf("healthz: got %d", hr.Code)
	}

	waitDrained(t, s)
	if st := s.Stats(); st.Completed != 1 || st.Failed != 0 || st.Accepted != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestServerRunsCuneiformSource(t *testing.T) {
	s, err := NewServer(ServerConfig{Nodes: 2}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	src := `deftask gen( out : inp ) @cpu 5 in bash *{ make $inp > $out }*
gen( inp: "seed.txt" );`
	rec := postJSON(t, h, "/v1/workflows", SubmitRequest{
		Tenant: "alpha", Name: "cf1", Lang: "cuneiform", Source: src,
		Inputs: []InputSpec{{Path: "seed.txt", SizeMB: 8}},
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: got %d (%s)", rec.Code, rec.Body.String())
	}
	run := s.Lookup("alpha-cf1")
	select {
	case <-run.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish")
	}
	if st := run.Status(); st.State != StateSucceeded {
		t.Fatalf("state %q, error %q", st.State, st.Error)
	}
	waitDrained(t, s)
}

// gateHook blocks every admitted run until released, pinning runs in the
// running state so quota and backpressure paths can be tested without races.
type gateHook struct {
	admitted chan string
	release  chan struct{}
}

func (g *gateHook) OnQueued(now float64, tenant, id string)                       {}
func (g *gateHook) OnRejected(now float64, tenant, id string, retryAfter float64) {}
func (g *gateHook) OnFinished(now float64, tenant, id string, succeeded bool)     {}
func (g *gateHook) OnAdmitted(now float64, tenant, id string) {
	g.admitted <- id
	<-g.release
}

func TestServerBackpressureAndTenantQuota(t *testing.T) {
	hook := &gateHook{admitted: make(chan string, 16), release: make(chan struct{})}
	profiles := serveProfiles()
	profiles[0].MaxInFlight = 2
	s, err := NewServer(ServerConfig{
		Nodes: 2, MaxConcurrent: 1, MaxQueue: 1, RetryAfterSec: 7, Hook: hook,
	}, profiles)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// First run admitted (and parked in the hook), second queued.
	if rec := postJSON(t, h, "/v1/workflows", workloadSubmission("alpha", "w000")); rec.Code != http.StatusAccepted {
		t.Fatalf("w000: got %d", rec.Code)
	}
	select {
	case <-hook.admitted:
	case <-time.After(10 * time.Second):
		t.Fatal("w000 never admitted")
	}
	if rec := postJSON(t, h, "/v1/workflows", workloadSubmission("beta", "w000")); rec.Code != http.StatusAccepted {
		t.Fatalf("beta-w000: got %d", rec.Code)
	}

	// Queue is now full: a third submission gets 429 with the hint.
	rec := postJSON(t, h, "/v1/workflows", workloadSubmission("beta", "w001"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-queue: got %d (%s)", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After header %q", got)
	}
	if er := decodeError(t, rec); er.RetryAfterSec != 7 {
		t.Fatalf("retryAfterSec %v", er.RetryAfterSec)
	}

	// Drain stops admission with 503 and answers the drain endpoint.
	dr := postJSON(t, h, "/v1/drain", struct{}{})
	if dr.Code != http.StatusAccepted {
		t.Fatalf("drain: got %d", dr.Code)
	}
	var drained DrainResponse
	if err := json.Unmarshal(dr.Body.Bytes(), &drained); err != nil {
		t.Fatal(err)
	}
	if !drained.Draining || drained.Running != 1 || drained.Queued != 1 {
		t.Fatalf("drain response: %+v", drained)
	}
	if rec := postJSON(t, h, "/v1/workflows", workloadSubmission("alpha", "w100")); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: got %d", rec.Code)
	}

	close(hook.release)
	select {
	case <-s.Drained():
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain")
	}
	s.Wait()
	st := s.Stats()
	if st.Rejected != 1 || st.Completed != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// The queued run was rejected once before acceptance? No — the 429 hit a
	// different run name; its ID must not exist.
	if s.Lookup("beta-w001") != nil {
		t.Fatal("rejected run must not be registered")
	}
}

func TestServerTenantMaxInFlight(t *testing.T) {
	hook := &gateHook{admitted: make(chan string, 16), release: make(chan struct{})}
	profiles := serveProfiles()
	profiles[0].MaxInFlight = 1
	s, err := NewServer(ServerConfig{
		Nodes: 2, MaxConcurrent: 4, MaxQueue: 16, RetryAfterSec: 3, Hook: hook,
	}, profiles)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := postJSON(t, h, "/v1/workflows", workloadSubmission("alpha", "w000")); rec.Code != http.StatusAccepted {
		t.Fatalf("w000: got %d", rec.Code)
	}
	<-hook.admitted
	// alpha is at its quota; beta is not affected.
	rec := postJSON(t, h, "/v1/workflows", workloadSubmission("alpha", "w001"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota: got %d", rec.Code)
	}
	if er := decodeError(t, rec); !strings.Contains(er.Error, "max in-flight") {
		t.Fatalf("error %q", er.Error)
	}
	if rec := postJSON(t, h, "/v1/workflows", workloadSubmission("beta", "w000")); rec.Code != http.StatusAccepted {
		t.Fatalf("beta unaffected: got %d", rec.Code)
	}
	<-hook.admitted
	close(hook.release)
	waitDrained(t, s)

	// The rejected ID, resubmitted after capacity freed, carries its
	// rejection history — but the server is drained now, so check the
	// reject bookkeeping survived on the record instead.
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestServerRejectionHistoryMergesIntoRun(t *testing.T) {
	hook := &gateHook{admitted: make(chan string, 16), release: make(chan struct{})}
	profiles := serveProfiles()
	profiles[0].MaxInFlight = 1
	s, err := NewServer(ServerConfig{Nodes: 2, MaxConcurrent: 4, MaxQueue: 16, Hook: hook}, profiles)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := postJSON(t, h, "/v1/workflows", workloadSubmission("alpha", "w000")); rec.Code != http.StatusAccepted {
		t.Fatalf("w000: got %d", rec.Code)
	}
	<-hook.admitted
	if rec := postJSON(t, h, "/v1/workflows", workloadSubmission("alpha", "w001")); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("first try: got %d", rec.Code)
	}
	close(hook.release)
	if run := s.Lookup("alpha-w000"); run != nil {
		select {
		case <-run.Done():
		case <-time.After(30 * time.Second):
			t.Fatal("w000 did not finish")
		}
	}
	// Retry after capacity freed: accepted, carrying one rejection.
	if rec := postJSON(t, h, "/v1/workflows", workloadSubmission("alpha", "w001")); rec.Code != http.StatusAccepted {
		t.Fatalf("retry: got %d (%s)", rec.Code, rec.Body.String())
	}
	run := s.Lookup("alpha-w001")
	select {
	case <-run.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("w001 did not finish")
	}
	if st := run.Status(); st.Rejections != 1 {
		t.Fatalf("rejections %d", st.Rejections)
	}
	waitDrained(t, s)
}

// A tenant at its in-flight limit gets its slot back before a client can see
// its run finish: resubmitting the moment Done closes is always admitted.
func TestServerResubmitOnDoneIsAdmitted(t *testing.T) {
	const rounds = 200
	profiles := serveProfiles()
	profiles[0].MaxInFlight = 1
	s, err := NewServer(ServerConfig{Nodes: 2, MaxConcurrent: 1, MaxQueue: 1}, profiles)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		req := workloadSubmission("alpha", fmt.Sprintf("r%03d", i))
		if code, body := s.submit(&req); code != http.StatusAccepted {
			t.Fatalf("round %d: got %d (%+v)", i, code, body)
		}
		select {
		case <-s.Lookup(req.Tenant + "-" + req.Name).Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: run did not finish", i)
		}
	}
	waitDrained(t, s)
}

// A client that gives up on a rejected name never has it accepted, so nothing
// ever deletes its rejection record: the history must be bounded, and beyond
// the bound a rejection is still counted and answered 429, just not kept.
func TestServerRejectionHistoryIsBounded(t *testing.T) {
	const maxQueue, distinct = 2, 10000
	hook := &gateHook{admitted: make(chan string, 16), release: make(chan struct{})}
	s, err := NewServer(ServerConfig{Nodes: 2, MaxConcurrent: 1, MaxQueue: maxQueue, Hook: hook}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 0; i <= maxQueue; i++ { // one admitted and parked, the queue full behind it
		if rec := postJSON(t, h, "/v1/workflows", workloadSubmission("alpha", fmt.Sprintf("held%d", i))); rec.Code != http.StatusAccepted {
			t.Fatalf("held%d: got %d", i, rec.Code)
		}
	}
	<-hook.admitted
	for i := 0; i < distinct; i++ {
		req := workloadSubmission("beta", fmt.Sprintf("gone%05d", i))
		if code, _ := s.submit(&req); code != http.StatusTooManyRequests {
			t.Fatalf("gone%05d: got %d against a full queue", i, code)
		}
	}
	s.mu.Lock()
	kept := len(s.rejects)
	s.mu.Unlock()
	if bound := rejectHistoryPerQueueSlot * maxQueue; kept == 0 || kept > bound {
		t.Fatalf("%d rejection records kept after %d distinct rejected IDs, want 1..%d", kept, distinct, bound)
	}
	if st := s.Stats(); st.Rejected != distinct {
		t.Fatalf("counted %d rejections, want %d", st.Rejected, distinct)
	}
	close(hook.release)
	for i := 0; i <= maxQueue; i++ {
		<-s.Lookup(fmt.Sprintf("alpha-held%d", i)).Done()
	}
	// A recorded ID carries its history into the run; one past the bound
	// starts its history at acceptance.
	for name, want := range map[string]int{"gone00000": 1, fmt.Sprintf("gone%05d", distinct-1): 0} {
		run := runToTerminal(t, s, h, workloadSubmission("beta", name))
		if st := run.Status(); st.Rejections != want {
			t.Fatalf("%s: %d rejections in its history, want %d", name, st.Rejections, want)
		}
	}
	waitDrained(t, s)
}

func TestSeededSubmissionsDeterministic(t *testing.T) {
	profiles := serveProfiles()
	render := func(subs []TimedSubmission) string {
		b, err := json.Marshal(subs)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a := SeededSubmissions(42, profiles, 300)
	b := SeededSubmissions(42, profiles, 300)
	if len(a) == 0 {
		t.Fatal("no submissions generated")
	}
	if render(a) != render(b) {
		t.Fatal("same seed produced different schedules")
	}
	if c := SeededSubmissions(43, profiles, 300); render(a) == render(c) {
		t.Fatal("different seeds produced identical schedules")
	}
	// Burst tenants submit Burst workflows per arrival with sequential names.
	perTenant := map[string][]string{}
	for _, ts := range a {
		perTenant[ts.Req.Tenant] = append(perTenant[ts.Req.Tenant], ts.Req.Name)
	}
	for tenant, names := range perTenant {
		for i, n := range names {
			if want := fmt.Sprintf("w%03d", i); n != want {
				t.Fatalf("tenant %s submission %d named %q, want %q", tenant, i, n, want)
			}
		}
	}
}

func TestDeterministicReplayIsReproducible(t *testing.T) {
	runReplay := func() ([]byte, ServerStats) {
		s, err := NewServer(ServerConfig{
			Nodes: 2, MaxConcurrent: 2, MaxQueue: 4, RetryAfterSec: 20, RetryLimit: 1,
			Deterministic: true,
		}, serveProfiles())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunDeterministic(7, 200); err != nil {
			t.Fatal(err)
		}
		return s.Multiset(), s.Stats()
	}
	m1, st1 := runReplay()
	m2, st2 := runReplay()
	if !bytes.Equal(m1, m2) {
		t.Fatalf("same-seed replays diverged:\n%s\n--\n%s", m1, m2)
	}
	if st1 != st2 {
		t.Fatalf("same-seed replay stats diverged: %+v vs %+v", st1, st2)
	}
	if st1.Completed == 0 {
		t.Fatalf("replay completed nothing: %+v", st1)
	}
}

func TestDeterministicReplayMatchesLiveServer(t *testing.T) {
	const seed, window = 11, 150.0
	profiles := serveProfiles()

	det, err := NewServer(ServerConfig{Nodes: 2, MaxQueue: 1 << 10, Deterministic: true}, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.RunDeterministic(seed, window); err != nil {
		t.Fatal(err)
	}

	live, err := NewServer(ServerConfig{Nodes: 2, MaxQueue: 1 << 10}, profiles)
	if err != nil {
		t.Fatal(err)
	}
	h := live.Handler()
	for _, ts := range SeededSubmissions(seed, profiles, window) {
		if rec := postJSON(t, h, "/v1/workflows", ts.Req); rec.Code != http.StatusAccepted {
			t.Fatalf("live submit %s-%s: got %d", ts.Req.Tenant, ts.Req.Name, rec.Code)
		}
	}
	waitDrained(t, live)

	if got, want := live.Multiset(), det.Multiset(); !bytes.Equal(got, want) {
		t.Fatalf("live multiset diverged from deterministic replay:\nlive:\n%s\ndet:\n%s", got, want)
	}
	if live.Stats().Completed != det.Stats().Completed {
		t.Fatalf("completed counts diverged: %+v vs %+v", live.Stats(), det.Stats())
	}
}

func TestRunDeterministicRequiresDeterministicServer(t *testing.T) {
	s, err := NewServer(ServerConfig{}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunDeterministic(1, 10); err == nil {
		t.Fatal("expected an error on a non-deterministic server")
	}
	det, err := NewServer(ServerConfig{Deterministic: true}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	if err := det.RunDeterministic(1, 0); err == nil {
		t.Fatal("expected an error for a non-positive duration")
	}
}

func TestNewServerValidation(t *testing.T) {
	for _, p := range []string{"random", "greedy"} {
		if _, err := NewServer(ServerConfig{Policy: p}, serveProfiles()); err == nil {
			t.Fatalf("unknown policy %q accepted", p)
		}
	}
	if _, err := NewServer(ServerConfig{}, nil); err == nil {
		t.Fatal("empty profiles accepted")
	}
	// Deterministic servers need arrival rates.
	rateless := []TenantProfile{{Name: "only", Workload: WorkloadSpec{Kind: WorkloadSNV}}}
	if _, err := NewServer(ServerConfig{Deterministic: true}, rateless); err == nil {
		t.Fatal("deterministic server accepted a rate-less profile")
	}
	// A live server accepts rate-less profiles (HTTP-only tenants).
	if _, err := NewServer(ServerConfig{}, rateless); err != nil {
		t.Fatalf("live server rejected a rate-less profile: %v", err)
	}
}

// TestRunRegistry pins the registry's contract while 8 goroutines store
// and load at once (run it under -race): Store refuses an ID already taken
// — by an earlier store or by a racing one — Load finds every stored run,
// and All returns each run exactly once.
func TestRunRegistry(t *testing.T) {
	var reg runRegistry
	const workers, perWorker = 8, 64
	for i := 0; i < perWorker; i++ {
		id := fmt.Sprintf("early-w%03d", i)
		if !reg.Store(id, &Run{ID: id}) {
			t.Fatalf("fresh id %q reported taken", id)
		}
	}
	var wg sync.WaitGroup
	var raceWins atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("tenant-%d-w%03d", w, i)
				if !reg.Store(id, &Run{ID: id}) {
					t.Errorf("fresh id %q reported taken", id)
				}
				if reg.Store(id, &Run{ID: id}) {
					t.Errorf("second store of %q succeeded", id)
				}
				early := fmt.Sprintf("early-w%03d", i)
				if reg.Store(early, &Run{ID: early}) {
					t.Errorf("store of %q, taken before the workers started, succeeded", early)
				}
				// All workers race to take the same ID; one may win.
				contended := fmt.Sprintf("contended-w%03d", i)
				if reg.Store(contended, &Run{ID: contended}) {
					raceWins.Add(1)
				}
				for _, want := range []string{id, early, contended} {
					if got := reg.Load(want); got == nil || got.ID != want {
						t.Errorf("Load(%q) = %v", want, got)
					}
				}
				_ = reg.All()
			}
		}(w)
	}
	wg.Wait()
	if raceWins.Load() != perWorker {
		t.Fatalf("%d racing stores won, want exactly one per contended ID (%d)", raceWins.Load(), perWorker)
	}
	if reg.Load("missing") != nil {
		t.Fatal("missing id resolved")
	}
	seen := map[string]bool{}
	for _, r := range reg.All() {
		if seen[r.ID] {
			t.Fatalf("All() returned %q twice", r.ID)
		}
		seen[r.ID] = true
	}
	if want := (workers + 2) * perWorker; len(seen) != want {
		t.Fatalf("All() returned %d runs, want %d", len(seen), want)
	}
}

// BenchmarkRunRegistry measures status lookups — RunParallel loads of runs
// already registered — while another goroutine keeps registering new runs,
// the registry's traffic under a submission burst.
func BenchmarkRunRegistry(b *testing.B) {
	var reg runRegistry
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = fmt.Sprintf("tenant-%d-w%04d", i%7, i)
		reg.Store(ids[i], &Run{ID: ids[i]})
	}
	late := make([]string, 1<<15)
	for i := range late {
		late[i] = fmt.Sprintf("late-w%05d", i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range late {
			select {
			case <-stop:
				return
			default:
				reg.Store(id, &Run{ID: id})
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if reg.Load(ids[i%len(ids)]) == nil {
				b.Error("registered run not found")
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}

func TestServerFlushProvenanceMergesAllRuns(t *testing.T) {
	s, err := NewServer(ServerConfig{Nodes: 2}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if rec := postJSON(t, h, "/v1/workflows", workloadSubmission("alpha", fmt.Sprintf("w%03d", i))); rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: got %d", i, rec.Code)
		}
	}
	waitDrained(t, s)

	dst := provenance.NewMemStore()
	n, err := s.FlushProvenance(dst)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := dst.Events()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || len(evs) != n {
		t.Fatalf("flushed %d events, store has %d", n, len(evs))
	}
	seen := map[string]bool{}
	for i, ev := range evs {
		seen[ev.WorkflowID] = true
		if i > 0 && evs[i].Timestamp < evs[i-1].Timestamp {
			t.Fatalf("merged events out of order at %d", i)
		}
	}
	for i := 0; i < 3; i++ {
		if id := fmt.Sprintf("alpha-w%03d", i); !seen[id] {
			t.Fatalf("flushed trace missing run %s (have %v)", id, seen)
		}
	}
}

func TestServerSharedMemoAcrossTenants(t *testing.T) {
	s, err := NewServer(ServerConfig{Nodes: 4, Memo: true}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	finish := func(id string) RunStatus {
		t.Helper()
		run := s.Lookup(id)
		if run == nil {
			t.Fatalf("run %s not registered", id)
		}
		select {
		case <-run.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("run %s did not finish", id)
		}
		var st RunStatus
		if err := json.Unmarshal(get(t, h, "/v1/workflows/"+id).Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State != StateSucceeded {
			t.Fatalf("run %s: state %q, error %q", id, st.State, st.Error)
		}
		return st
	}

	// Same workload spec, two tenants: the second run splices every task
	// from the first run's table entries and finishes in zero virtual time.
	if rec := postJSON(t, h, "/v1/workflows", workloadSubmission("alpha", "w000")); rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", rec.Code, rec.Body.String())
	}
	cold := finish("alpha-w000")
	if cold.MakespanSec <= 0 {
		t.Fatalf("cold run makespan %v", cold.MakespanSec)
	}
	if rec := postJSON(t, h, "/v1/workflows", workloadSubmission("beta", "w000")); rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", rec.Code, rec.Body.String())
	}
	warm := finish("beta-w000")
	if warm.MakespanSec != 0 {
		t.Fatalf("warm cross-tenant run executed: makespan %v", warm.MakespanSec)
	}
	if len(warm.CompletedTasks) != len(cold.CompletedTasks) {
		t.Fatalf("task multisets diverged: %v vs %v", warm.CompletedTasks, cold.CompletedTasks)
	}

	// The provenance endpoint summarizes and queries the merged trace.
	var pr ProvenanceResponse
	if err := json.Unmarshal(get(t, h, "/v1/provenance").Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Events == 0 || pr.MemoHits != len(warm.CompletedTasks) {
		t.Fatalf("provenance summary: %+v", pr)
	}
	hits := get(t, h, "/v1/provenance?q=memo-hits")
	if hits.Code != http.StatusOK {
		t.Fatalf("memo-hits query: %d (%s)", hits.Code, hits.Body.String())
	}
	body := hits.Body.String()
	if !strings.Contains(body, "beta-w000") || !strings.Contains(body, "alpha-w000") {
		t.Fatalf("memo-hits attribution missing: %q", body)
	}
	if rec := get(t, h, "/v1/provenance?q=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bogus query: %d", rec.Code)
	}

	// The table's metric family lands on the server registry.
	metrics := get(t, h, "/metrics").Body.String()
	if !strings.Contains(metrics, "hiway_memo_hits_total") {
		t.Fatal("hiway_memo_* metrics missing from /metrics")
	}
	waitDrained(t, s)
}

// liveHeap returns the bytes reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// runToTerminal submits req over the handler and waits for the run to end.
func runToTerminal(t *testing.T, s *Server, h http.Handler, req SubmitRequest) *Run {
	t.Helper()
	if rec := postJSON(t, h, "/v1/workflows", req); rec.Code != http.StatusAccepted {
		t.Fatalf("%s: got %d (%s)", req.Name, rec.Code, rec.Body.String())
	}
	run := s.Lookup(req.Tenant + "-" + req.Name)
	select {
	case <-run.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not finish", req.Name)
	}
	if st := run.Status(); st.State != StateSucceeded {
		t.Fatalf("%s: state %q, error %q", req.Name, st.State, st.Error)
	}
	return run
}

// A terminal run is the record the API serves. The submitted payload — here a
// source padded with 256 KB of comment — was needed to build and execute the
// workflow and must not stay behind for the server's lifetime, not even
// through a task name or file path cut out of it.
func TestTerminalRunRetainsNoPayload(t *testing.T) {
	const runs, padding = 40, 256 << 10
	pad := strings.Repeat("x", padding)
	for _, c := range []struct{ lang, src string }{
		{"cuneiform", "%% " + pad + `
deftask gen( out : inp ) @cpu 5 in bash *{ make $inp > $out }*
gen( inp: "seed.txt" );`},
		{"dax", `<adag name="pad"><!-- ` + pad + ` -->
  <job id="gen" name="gen" runtime="5">
    <uses file="seed.txt" link="input"/>
    <uses file="out.txt" link="output"/>
  </job>
</adag>`},
	} {
		t.Run(c.lang, func(t *testing.T) {
			s, err := NewServer(ServerConfig{Nodes: 2}, serveProfiles())
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			submission := func(i int) SubmitRequest {
				return SubmitRequest{
					Tenant: "alpha", Name: fmt.Sprintf("%s%02d", c.lang, i), Lang: c.lang, Source: c.src,
					Inputs: []InputSpec{{Path: "seed.txt", SizeMB: 8}},
				}
			}
			runToTerminal(t, s, h, submission(runs)) // warm-up: lazy one-time state
			before := liveHeap()
			for i := 0; i < runs; i++ {
				runToTerminal(t, s, h, submission(i))
			}
			waitDrained(t, s)
			perRun := (liveHeap() - before) / runs
			runtime.KeepAlive(s)
			if perRun > padding/4 {
				t.Fatalf("a terminal run retains %d bytes of a submission padded with %d", perRun, padding)
			}
		})
	}
}

// The same for what the payload was parsed into: besides the two buffers the
// record keeps by design (provenance, SSE log), a terminal workload run must
// retain far less than its task graph occupies.
func TestTerminalRunRetainsNoGraph(t *testing.T) {
	const runs = 20
	spec := WorkloadSpec{Kind: WorkloadSNV, Samples: 8, FilesPerSample: 8, FileSizeMB: 16, CPUSeconds: 10}

	before := liveHeap()
	graphs := make([]any, 0, 2*runs)
	for i := 0; i < runs; i++ {
		d, inputs, err := buildSpecWorkflow("alpha", fmt.Sprintf("g%02d", i), spec) // the reference build
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, d, inputs)
	}
	graph := (liveHeap() - before) / runs
	runtime.KeepAlive(graphs)
	graphs = nil

	s, err := NewServer(ServerConfig{Nodes: 4}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	submission := func(i int) SubmitRequest {
		return SubmitRequest{Tenant: "alpha", Name: fmt.Sprintf("w%02d", i), Workload: &spec}
	}
	runToTerminal(t, s, h, submission(runs)) // warm-up: lazy one-time state
	before = liveHeap()
	var terminal []*Run
	for i := 0; i < runs; i++ {
		terminal = append(terminal, runToTerminal(t, s, h, submission(i)))
	}
	waitDrained(t, s)
	for _, r := range terminal {
		r.prov, r.events = nil, nil
	}
	perRun := (liveHeap() - before) / runs
	// What the runs share: the spec compiled once, which the compile table
	// keeps for the next run of it.
	kept := len(s.compiled.entries)
	s.compiled.entries = nil
	table := before + perRun*runs - liveHeap()
	runtime.KeepAlive(s)
	t.Logf("graph %d bytes, retained besides the buffers %d bytes, the compile table %d bytes", graph, perRun, table)
	if perRun > graph/4 {
		t.Fatalf("besides its buffers a terminal run retains %d bytes; its task graph occupies %d", perRun, graph)
	}
	if kept != 1 || table > graph {
		t.Fatalf("the compile table keeps %d entries in %d bytes; want the one spec, in less than one run's graph (%d)", kept, table, graph)
	}
}

// The gate's queue array outlives what passed through it (the next run is
// queued behind the one admitted), so an admitted slot must be cleared or the
// array keeps the job — payload, graph and all — reachable after its run.
func TestFifoGateForgetsWhatItAdmitted(t *testing.T) {
	type job struct{ payload [256]byte }
	g := newFifoGate[*job](1, 4)
	collected := make(chan struct{})
	first := new(job)
	runtime.SetFinalizer(first, func(*job) { close(collected) })
	g.Enqueue(first)
	g.Enqueue(new(job))
	if got, ok := g.Next(); !ok || got != first {
		t.Fatal("the gate did not admit its head")
	}
	first = nil
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			if g.Depth() != 1 || g.Running() != 1 {
				t.Fatalf("depth %d, running %d after one admission of two", g.Depth(), g.Running())
			}
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
	t.Fatal("the admitted job is still reachable from the gate")
}
