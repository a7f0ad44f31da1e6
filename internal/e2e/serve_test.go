package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hiway/internal/provenance"
	"hiway/internal/service"
)

// serveMix is the tenant mix for the serve e2e: rates are sized so a
// 300-second seeded window yields comfortably more than 128 workflows.
func serveMix() []service.TenantProfile {
	return []service.TenantProfile{
		{Name: "genomics", Weight: 2, MaxContainers: 8, RatePerSec: 0.45,
			Workload: service.WorkloadSpec{Kind: service.WorkloadSNV, FileSizeMB: 8, CPUSeconds: 5}},
		{Name: "rnaseq", Weight: 1, MaxContainers: 4, RatePerSec: 0.25,
			Workload: service.WorkloadSpec{Kind: service.WorkloadSNV, FilesPerSample: 2, FileSizeMB: 8, CPUSeconds: 5}},
	}
}

// admitGate parks every admitted run inside the hook until release is
// closed, so the test can prove N runs are concurrently in flight. Hooks
// fire outside the server mutex precisely so they may block like this.
type admitGate struct {
	mu      sync.Mutex
	n       int
	target  int
	reached chan struct{}
	release chan struct{}
}

func newAdmitGate(target int) *admitGate {
	return &admitGate{target: target, reached: make(chan struct{}), release: make(chan struct{})}
}

func (g *admitGate) OnQueued(now float64, tenant, id string)                       {}
func (g *admitGate) OnRejected(now float64, tenant, id string, retryAfter float64) {}
func (g *admitGate) OnFinished(now float64, tenant, id string, succeeded bool)     {}
func (g *admitGate) OnAdmitted(now float64, tenant, id string) {
	g.mu.Lock()
	g.n++
	if g.n == g.target {
		close(g.reached)
	}
	g.mu.Unlock()
	<-g.release
}

// TestServeConcurrentHTTPMatchesDeterministicReplay is the serve tier's
// headline e2e: the same seeded submission schedule is (a) pushed over real
// HTTP by parallel clients against a live concurrent server, with at least
// 100 workflows pinned concurrently in flight, and (b) replayed on a
// virtual clock by RunDeterministic. The completed-run multisets must be
// byte-identical — each run's outcome is a pure function of its submission
// because its substrate is seeded from the run ID.
func TestServeConcurrentHTTPMatchesDeterministicReplay(t *testing.T) {
	const (
		seed     = 97
		window   = 300.0
		inFlight = 100
	)
	profiles := serveMix()
	subs := service.SeededSubmissions(seed, profiles, window)
	if len(subs) < 128 {
		t.Fatalf("seeded window produced only %d submissions; need >= 128 for the in-flight pin", len(subs))
	}
	cfg := service.ServerConfig{
		Nodes:         2,
		MaxConcurrent: 128,
		MaxQueue:      4096,
	}

	// Live half: a real TCP listener, parallel clients, blocking admit gate.
	gate := newAdmitGate(inFlight)
	liveCfg := cfg
	liveCfg.Hook = gate
	live, err := service.NewServer(liveCfg, profiles)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(live.Handler())
	defer hs.Close()

	work := make(chan service.TimedSubmission, len(subs))
	for _, ts := range subs {
		work <- ts
	}
	close(work)
	errCh := make(chan error, len(subs))
	var clients sync.WaitGroup
	for c := 0; c < 16; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for ts := range work {
				body, err := json.Marshal(ts.Req)
				if err != nil {
					errCh <- err
					return
				}
				resp, err := hs.Client().Post(hs.URL+"/v1/workflows", "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					errCh <- fmt.Errorf("submit %s-%s: status %d", ts.Req.Tenant, ts.Req.Name, resp.StatusCode)
					return
				}
			}
		}()
	}
	clients.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Every submission is in (queued or parked in the admit hook). The gate
	// has already seen 100 admissions; prove they are concurrently in flight.
	select {
	case <-gate.reached:
	case <-time.After(60 * time.Second):
		t.Fatalf("only %d runs admitted; wanted %d concurrently in flight", gate.n, inFlight)
	}
	if peak := live.PeakRunning(); peak < inFlight {
		t.Fatalf("peak concurrent runs %d, want >= %d", peak, inFlight)
	}
	close(gate.release)

	live.StartDrain()
	select {
	case <-live.Drained():
	case <-time.After(120 * time.Second):
		t.Fatal("live server did not drain")
	}
	live.Wait()

	st := live.Stats()
	if st.Rejected != 0 || int(st.Accepted) != len(subs) || st.Completed+st.Failed != st.Accepted {
		t.Fatalf("live stats: %+v for %d submissions", st, len(subs))
	}

	// Deterministic half: same config (minus the hook), same seed, virtual
	// clock, in-process transport through the same HTTP handlers.
	detCfg := cfg
	detCfg.Deterministic = true
	det, err := service.NewServer(detCfg, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.RunDeterministic(seed, window); err != nil {
		t.Fatal(err)
	}
	if ds := det.Stats(); ds.Accepted != st.Accepted {
		t.Fatalf("replay accepted %d runs, live accepted %d", ds.Accepted, st.Accepted)
	}

	liveMS, detMS := live.Multiset(), det.Multiset()
	if !bytes.Equal(liveMS, detMS) {
		t.Fatalf("concurrent HTTP multiset diverged from deterministic replay\nlive (%d bytes):\n%s\ndet (%d bytes):\n%s",
			len(liveMS), liveMS, len(detMS), detMS)
	}
	if len(bytes.TrimSpace(liveMS)) == 0 {
		t.Fatal("empty multiset: the comparison proved nothing")
	}

	// A run's provenance is a function of its submission too, task IDs
	// included: each run's own stream is byte-identical in both halves.
	liveProv, detProv := perRunProvenance(t, live), perRunProvenance(t, det)
	if len(liveProv) != len(detProv) {
		t.Fatalf("live server recorded %d runs, replay %d", len(liveProv), len(detProv))
	}
	for id, want := range detProv {
		if got := liveProv[id]; !bytes.Equal(got, want) {
			t.Fatalf("run %s: live provenance diverged from the replay\nlive:\n%s\nreplay:\n%s", id, got, want)
		}
	}
}

// perRunProvenance flushes a drained server's provenance and splits it into
// one JSONL trace per run. The flush orders events by (timestamp, run,
// position), so each run's events keep their own order whatever the others
// did.
func perRunProvenance(t *testing.T, s *service.Server) map[string][]byte {
	t.Helper()
	store := provenance.NewMemStore()
	if _, err := s.FlushProvenance(store); err != nil {
		t.Fatal(err)
	}
	byRun := map[string][]provenance.Event{}
	evs, err := store.Events()
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		byRun[ev.WorkflowID] = append(byRun[ev.WorkflowID], ev)
	}
	out := make(map[string][]byte, len(byRun))
	for id, evs := range byRun {
		var b bytes.Buffer
		if err := provenance.WriteTrace(&b, evs); err != nil {
			t.Fatal(err)
		}
		out[id] = b.Bytes()
	}
	return out
}

// TestServeHTTPStatusAndEventsOverWire exercises the read side over a real
// connection: per-run status, the SSE stream of a finished run, and the
// Prometheus exposition.
func TestServeHTTPStatusAndEventsOverWire(t *testing.T) {
	srv, err := service.NewServer(service.ServerConfig{Nodes: 2}, serveMix())
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	req := service.SubmitRequest{Tenant: "genomics", Name: "wire0",
		Workload: &service.WorkloadSpec{Kind: service.WorkloadSNV, FileSizeMB: 8, CPUSeconds: 5}}
	body, _ := json.Marshal(req)
	resp, err := hs.Client().Post(hs.URL+"/v1/workflows", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub service.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	run := srv.Lookup(sub.ID)
	if run == nil {
		t.Fatalf("run %q not registered", sub.ID)
	}
	select {
	case <-run.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("run did not finish")
	}

	sr, err := hs.Client().Get(hs.URL + "/v1/workflows/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var status service.RunStatus
	if err := json.NewDecoder(sr.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if status.State != service.StateSucceeded || status.Tasks == 0 {
		t.Fatalf("status over the wire: %+v", status)
	}

	er, err := hs.Client().Get(hs.URL + "/v1/workflows/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if _, err := stream.ReadFrom(er.Body); err != nil {
		t.Fatal(err)
	}
	er.Body.Close()
	for _, typ := range []string{service.EventQueued, service.EventAdmitted, service.EventFinished} {
		if !bytes.Contains(stream.Bytes(), []byte("event: "+typ+"\n")) {
			t.Fatalf("SSE stream missing %q:\n%s", typ, stream.String())
		}
	}

	mr, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if _, err := metrics.ReadFrom(mr.Body); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if !bytes.Contains(metrics.Bytes(), []byte("hiway_serve_completed_total 1")) {
		t.Fatalf("metrics exposition missing completion counter:\n%s", metrics.String())
	}

	srv.StartDrain()
	select {
	case <-srv.Drained():
	case <-time.After(60 * time.Second):
		t.Fatal("server did not drain")
	}
	srv.Wait()
}
