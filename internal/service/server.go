package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"hiway/internal/core"
	"hiway/internal/memo"
	"hiway/internal/obs"
	"hiway/internal/provenance"
	"hiway/internal/scheduler"
	"hiway/internal/shard"
	"hiway/internal/sim"
	"hiway/internal/wf"
	"hiway/internal/yarn"
)

// SSE event types on GET /v1/workflows/{id}/events.
const (
	// EventQueued fires when the submission is accepted into the queue.
	EventQueued = "queued"
	// EventAdmitted fires when the run's AM goroutine launches.
	EventAdmitted = "admitted"
	// EventProgress fires per completed task.
	EventProgress = "progress"
	// EventFinished fires once, when the run reaches a terminal state.
	EventFinished = "finished"
)

// ServerConfig tunes the network front-end.
type ServerConfig struct {
	// Nodes sizes each run's private simulated cluster. Default 8.
	Nodes int
	// Policy is the default per-workflow scheduling policy (default fcfs);
	// a submission's Policy field overrides it per run.
	Policy string
	// MaxConcurrent caps concurrently running AM goroutines. Default 8.
	MaxConcurrent int
	// MaxQueue is the backpressure threshold: a submission arriving with
	// MaxQueue runs already queued is rejected with 429. Default 64.
	MaxQueue int
	// RetryAfterSec is the Retry-After hint attached to 429 rejections
	// (and the deterministic replay's client retry delay). Default 5.
	RetryAfterSec float64
	// RetryLimit is how many times the deterministic replay's simulated
	// client retries a rejected submission before dropping it; 0 (or less)
	// drops it at its first rejection.
	RetryLimit int
	// Deterministic switches the server onto a virtual clock with serial
	// run execution, driven by RunDeterministic through the same HTTP
	// handlers over an in-process transport. A deterministic server must
	// not serve real network traffic.
	Deterministic bool
	// Memo shares one cluster-wide memo table across every run the server
	// admits: repeated submissions of the same pipeline — any tenant, unless
	// its profile sets MemoOptOut — splice completed tasks from the table
	// instead of re-executing them. The table's hiway_memo_* metric family
	// lands on the server registry.
	Memo bool
	// Hook, if set, observes the server lifecycle. Hooks run outside the
	// server's internal lock and may block (the race e2e uses a blocking
	// OnAdmitted to pin 100 runs in flight at once); they must not call
	// back into the server.
	Hook Hook
}

func (c *ServerConfig) setDefaults() {
	orDefault(&c.Nodes, 8)
	orDefault(&c.Policy, scheduler.PolicyFCFS)
	orDefault(&c.MaxConcurrent, 8)
	orDefault(&c.MaxQueue, 64)
	orDefault(&c.RetryAfterSec, 5)
	c.Hook = cmp.Or(c.Hook, Hook(nopHook{}))
}

// Run is one submitted workflow's server-side record, kept for the server's
// lifetime: identity, lifecycle timestamps, the SSE event log, and the run's
// private provenance buffer. What executing the run needs lives in its runJob
// and goes when the run ends.
type Run struct {
	// ID is "<tenant>-<name>", unique for the server's lifetime.
	ID string
	// Tenant is the submitting tenant.
	Tenant string
	// Name is the client-chosen run name.
	Name string

	prov *provenance.MemStore
	done chan struct{}

	mu             sync.Mutex
	state          string
	submitAt       float64
	admitAt        float64
	endAt          float64
	rejections     int
	completedCount int
	completedTasks []string
	outputs        []string
	makespan       float64
	errMsg         string
	events         []RunEvent
	subs           []chan RunEvent
}

// Status snapshots the run for the status API.
func (r *Run) Status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunStatus{
		ID:             r.ID,
		Tenant:         r.Tenant,
		Name:           r.Name,
		State:          r.state,
		SubmitAt:       r.submitAt,
		AdmitAt:        r.admitAt,
		EndAt:          r.endAt,
		Tasks:          r.completedCount,
		CompletedTasks: append([]string(nil), r.completedTasks...),
		Outputs:        append([]string(nil), r.outputs...),
		MakespanSec:    r.makespan,
		Rejections:     r.rejections,
		Error:          r.errMsg,
	}
}

// Done returns a channel closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// publish appends the event to the run's log and fans it out to SSE
// subscribers. A finished event closes every subscriber channel.
func (r *Run) publish(ev RunEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	subs := append([]chan RunEvent(nil), r.subs...)
	closing := ev.Type == EventFinished
	if closing {
		r.subs = nil
	}
	r.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than stall the run
		}
		if closing {
			close(ch)
		}
	}
}

// subscribe returns the events so far plus, for a live run, a channel of
// future events and a cancel func. For a finished run ch is nil.
func (r *Run) subscribe() (ch chan RunEvent, replay []RunEvent, cancel func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	replay = append([]RunEvent(nil), r.events...)
	if r.state == StateSucceeded || r.state == StateFailed {
		return nil, replay, func() {}
	}
	ch = make(chan RunEvent, 64)
	r.subs = append(r.subs, ch)
	return ch, replay, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		for i, c := range r.subs {
			if c == ch {
				r.subs = append(r.subs[:i:i], r.subs[i+1:]...)
				break
			}
		}
	}
}

// runJob is what executing an accepted run needs and the API never serves:
// the request, whose workflow is instantiated only when the run launches. It
// travels through the admission gate to whatever executes the run and is
// unreachable once runWorkflow returns, so a terminal run retains neither
// its payload nor its task graph.
type runJob struct {
	run *Run
	req SubmitRequest
}

// rejectRecord accumulates 429s for a run ID that has not been accepted yet,
// so the eventual Run carries its full submission history.
type rejectRecord struct {
	count   int
	firstAt float64
}

// rejectHistoryPerQueueSlot bounds Server.rejects at this many records per
// MaxQueue slot. A record goes only when its ID is accepted, so without a
// bound every name a client gave up on would stay for the life of the
// process. At the bound a new ID's rejection is still counted and answered
// 429 but not recorded; its eventual run starts its history at acceptance.
const rejectHistoryPerQueueSlot = 16

// Server is the concurrent network front-end: it accepts workflow
// submissions over HTTP, routes them through the same fifoGate admission
// machinery as the seeded-arrival Service, and executes each admitted run
// on its own goroutine over a private simulation substrate (engine,
// cluster, HDFS, YARN RM) — the sharded-isolation discipline of
// internal/shard, which is what makes goroutine-per-AM execution race-free
// without locking the YARN allocator or HDFS namespace: no two goroutines
// ever share them. Cross-goroutine state is confined to the mutex-guarded
// admission gate and the run registry, a sync.Map written once per run.
type Server struct {
	cfg      ServerConfig
	profiles []TenantProfile
	tenants  map[string]*TenantProfile
	policies map[string]yarn.TenantPolicy

	obs      *obs.Obs
	memo     *memo.Table // nil unless cfg.Memo
	compiled compileTable
	start    time.Time
	// vclock is the deterministic replay's virtual clock and event queue (nil
	// in live mode).
	vclock *sim.Engine

	mu            sync.Mutex
	gate          *fifoGate[*runJob]
	inflight      map[string]int // per-tenant queued+running
	rejects       map[string]*rejectRecord
	admitted      []*Run // admission order, for the provenance merge
	peak          int
	draining      bool
	drainedClosed bool

	runs      runRegistry
	prov      *provIndex // what GET /v1/provenance answers from
	drainedCh chan struct{}
	wg        sync.WaitGroup
	detReady  []*runJob // admitted, awaiting serial execution (deterministic mode)

	submittedC *obs.Counter
	acceptedC  *obs.Counter
	rejectedC  *obs.Counter
	droppedC   *obs.Counter
	completedC *obs.Counter
	failedC    *obs.Counter
	depthG     *obs.Gauge
	runningG   *obs.Gauge
	peakG      *obs.Gauge
	drainingG  *obs.Gauge
	e2eH       *obs.Histogram
}

// NewServer validates the tenant profiles and builds the front-end. In
// deterministic mode every profile must carry an arrival rate (the replay
// generates traffic from them); a live server also accepts rate-less
// profiles, which submit over HTTP only.
func NewServer(cfg ServerConfig, profiles []TenantProfile) (*Server, error) {
	cfg.setDefaults()
	if !slices.Contains(scheduler.Policies, cfg.Policy) {
		return nil, fmt.Errorf("service: unknown policy %q", cfg.Policy)
	}
	if err := validateProfiles(profiles, cfg.Deterministic); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		profiles:  profiles,
		tenants:   make(map[string]*TenantProfile, len(profiles)),
		policies:  TenantPolicies(profiles),
		start:     time.Now(),
		gate:      newFifoGate[*runJob](cfg.MaxConcurrent, cfg.MaxQueue),
		inflight:  make(map[string]int),
		rejects:   make(map[string]*rejectRecord),
		drainedCh: make(chan struct{}),
	}
	for i := range profiles {
		s.tenants[profiles[i].Name] = &profiles[i]
	}
	if cfg.Deterministic {
		s.vclock = sim.NewEngine()
	}
	s.obs = obs.New(s.now)
	if cfg.Memo {
		s.memo = memo.New(0)
		for _, p := range profiles {
			if p.MemoOptOut {
				s.memo.SetOptOut(p.Name)
			}
		}
		s.memo.SetObs(s.obs)
	}
	m := s.obs.M()
	s.submittedC = m.Counter("hiway_serve_submissions_total", "workflow submission requests received")
	s.acceptedC = m.Counter("hiway_serve_accepted_total", "submissions accepted into the queue")
	s.rejectedC = m.Counter("hiway_serve_rejected_total", "submissions rejected with 429 (backpressure or tenant quota)")
	s.droppedC = m.Counter("hiway_serve_dropped_total", "replayed submissions dropped after exhausting retries")
	s.completedC = m.Counter("hiway_serve_completed_total", "runs that terminated successfully")
	s.failedC = m.Counter("hiway_serve_failed_total", "runs that terminated in failure")
	s.depthG = m.Gauge("hiway_serve_queue_depth", "runs currently queued for admission")
	s.runningG = m.Gauge("hiway_serve_running", "runs currently admitted and executing")
	s.peakG = m.Gauge("hiway_serve_running_peak", "high-water mark of concurrently executing runs")
	s.drainingG = m.Gauge("hiway_serve_draining", "1 while the server refuses new submissions")
	s.e2eH = m.Histogram("hiway_serve_e2e_latency_seconds",
		"seconds from first submission attempt to terminal state",
		[]float64{1, 5, 10, 30, 60, 120, 300, 600, 1800})
	s.prov = newProvIndex(m)
	return s, nil
}

// now returns the service clock: virtual seconds in deterministic mode,
// wall seconds since construction otherwise.
func (s *Server) now() float64 {
	if s.vclock != nil {
		return s.vclock.Now()
	}
	return time.Since(s.start).Seconds()
}

// Obs exposes the server's observability bundle (the /metrics registry).
func (s *Server) Obs() *obs.Obs { return s.obs }

// Lookup returns the run registered under id, or nil.
func (s *Server) Lookup(id string) *Run { return s.runs.Load(id) }

// PeakRunning returns the high-water mark of concurrently admitted runs.
func (s *Server) PeakRunning() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// ServerStats summarizes the server's lifetime counters.
type ServerStats struct {
	Submitted   int `json:"submitted"`
	Accepted    int `json:"accepted"`
	Rejected    int `json:"rejected"`
	Dropped     int `json:"dropped"`
	Completed   int `json:"completed"`
	Failed      int `json:"failed"`
	PeakRunning int `json:"peakRunning"`
}

// Stats snapshots the lifetime counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Submitted:   int(s.submittedC.Value()),
		Accepted:    int(s.acceptedC.Value()),
		Rejected:    int(s.rejectedC.Value()),
		Dropped:     int(s.droppedC.Value()),
		Completed:   int(s.completedC.Value()),
		Failed:      int(s.failedC.Value()),
		PeakRunning: s.PeakRunning(),
	}
}

// submit is the transport-independent submission path behind
// POST /v1/workflows: validate, enforce drain/duplicate/quota/backpressure,
// then queue and dispatch. It returns the HTTP status and response body.
func (s *Server) submit(req *SubmitRequest) (int, any) {
	s.submittedC.Inc()
	if apiErr := req.validate(s.tenants); apiErr != nil {
		return apiErr.code, ErrorResponse{Error: apiErr.msg}
	}
	if req.Policy != "" && !slices.Contains(scheduler.Policies, req.Policy) {
		return http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("unknown policy %q", req.Policy)}
	}
	id := req.Tenant + "-" + req.Name
	now := s.now()
	prof := s.tenants[req.Tenant]

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return http.StatusServiceUnavailable, ErrorResponse{Error: "server is draining; not accepting submissions"}
	}
	if s.runs.Load(id) != nil {
		s.mu.Unlock()
		return http.StatusConflict, ErrorResponse{Error: fmt.Sprintf("run %q already exists", id)}
	}
	overQuota := prof.MaxInFlight > 0 && s.inflight[req.Tenant] >= prof.MaxInFlight
	if overQuota || s.gate.Full() {
		rej := s.rejects[id]
		if rej == nil && len(s.rejects) < rejectHistoryPerQueueSlot*s.cfg.MaxQueue {
			rej = &rejectRecord{firstAt: now}
			s.rejects[id] = rej
		}
		if rej != nil {
			rej.count++
		}
		s.rejectedC.Inc()
		retry := s.cfg.RetryAfterSec
		s.mu.Unlock()
		s.cfg.Hook.OnRejected(now, req.Tenant, id, retry)
		msg := fmt.Sprintf("queue full (%d waiting)", s.cfg.MaxQueue)
		if overQuota {
			msg = fmt.Sprintf("tenant %q at max in-flight (%d)", req.Tenant, prof.MaxInFlight)
		}
		return http.StatusTooManyRequests, ErrorResponse{Error: msg, RetryAfterSec: retry}
	}
	r := &Run{
		ID:     id,
		Tenant: req.Tenant,
		Name:   req.Name,
		prov:   provenance.NewMemStore(),
		done:   make(chan struct{}),
		state:  StateQueued,
	}
	r.submitAt = now
	if rej := s.rejects[id]; rej != nil {
		r.rejections = rej.count
		r.submitAt = rej.firstAt
		delete(s.rejects, id)
	}
	j := &runJob{run: r, req: *req}
	s.runs.Store(id, r)
	s.inflight[req.Tenant]++
	s.gate.Enqueue(j)
	s.acceptedC.Inc()
	admitted := s.dispatchLocked()
	s.mu.Unlock()

	s.cfg.Hook.OnQueued(now, req.Tenant, id)
	r.publish(RunEvent{Type: EventQueued, At: now})
	s.launch(admitted)
	return http.StatusAccepted, SubmitResponse{ID: id, State: StateQueued}
}

// dispatchLocked admits queued runs through the shared fifoGate in strict
// FIFO order while the concurrency budget allows, marking them running.
// Unlike the simulated Service, a Server run is always launchable (each run
// brings its own substrate), so the gate never needs a Requeue here. Called
// with s.mu held; the returned runs must be handed to launch after unlock.
func (s *Server) dispatchLocked() []*runJob {
	var admitted []*runJob
	now := s.now()
	for {
		j, ok := s.gate.Next()
		if !ok {
			break
		}
		j.run.mu.Lock()
		j.run.state = StateRunning
		j.run.admitAt = now
		j.run.mu.Unlock()
		s.admitted = append(s.admitted, j.run)
		admitted = append(admitted, j)
	}
	if n := s.gate.Running(); n > s.peak {
		s.peak = n
		s.peakG.Set(float64(n))
	}
	s.depthG.Set(float64(s.gate.Depth()))
	s.runningG.Set(float64(s.gate.Running()))
	return admitted
}

// launch starts execution of freshly admitted runs: one goroutine per AM in
// real mode, a serial ready-list in deterministic mode.
func (s *Server) launch(admitted []*runJob) {
	for _, j := range admitted {
		r := j.run
		r.mu.Lock()
		at := r.admitAt
		r.mu.Unlock()
		r.publish(RunEvent{Type: EventAdmitted, At: at})
		if s.cfg.Deterministic {
			s.cfg.Hook.OnAdmitted(at, r.Tenant, r.ID)
			s.detReady = append(s.detReady, j)
			continue
		}
		s.wg.Add(1)
		go func(j *runJob, at float64) {
			defer s.wg.Done()
			r := j.run
			s.cfg.Hook.OnAdmitted(at, r.Tenant, r.ID)
			rep, err := s.runWorkflow(j)
			s.finishRun(r, rep, err)
		}(j, at)
	}
}

// seedFor derives a run's substrate seed from its ID, so the same run gets
// the same HDFS block placement in real and deterministic mode.
func seedFor(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// runAudit forwards AM task completions to the run's SSE stream.
type runAudit struct {
	s *Server
	r *Run
}

// OnTaskSubmitted is an uninteresting part of the AuditSink contract.
func (a *runAudit) OnTaskSubmitted(float64, *wf.Task) {}

// OnAttemptStart is an uninteresting part of the AuditSink contract.
func (a *runAudit) OnAttemptStart(float64, *wf.Task, string, int) {}

// OnAttemptEnd is an uninteresting part of the AuditSink contract.
func (a *runAudit) OnAttemptEnd(float64, *wf.Task, string, int, int, bool) {}

// OnWorkflowEnd is uninteresting too: finishRun publishes the terminal state.
func (a *runAudit) OnWorkflowEnd(float64, bool) {}

// OnTaskCompleted publishes a progress event on the run's stream.
func (a *runAudit) OnTaskCompleted(now float64, t *wf.Task, node string) {
	at := a.s.now()
	a.r.mu.Lock()
	a.r.completedCount++
	n := a.r.completedCount
	a.r.mu.Unlock()
	a.r.publish(RunEvent{Type: EventProgress, At: at, Task: t.Name, Completed: n})
}

// runWorkflow executes one admitted run to completion on a private
// substrate. Everything it touches — engine, cluster, HDFS, YARN RM,
// provenance buffer — is materialized here and owned by this goroutine, so
// any number of runs execute concurrently without shared locks, and the
// result is a pure function of (run ID, payload, policy, Nodes): real and
// deterministic mode produce byte-identical completed-task sets per run.
func (s *Server) runWorkflow(j *runJob) (*core.Report, error) {
	// A spec binds its paths under the run's root, which memo keys strip; a
	// source keeps the paths its payload chose.
	r, prefix := j.run, ""
	if j.req.Workload != nil {
		prefix = fmt.Sprintf("/svc/%s/%s", r.Tenant, r.Name)
	}
	driver, inputs, err := s.compiled.instantiate(&j.req, prefix)
	if err != nil {
		return nil, err
	}
	eng, env, err := TierRecipe(r.ID, s.cfg.Nodes, s.cfg.Nodes, s.policies, seedFor(r.ID)).Materialize()
	if err != nil {
		return nil, err
	}
	// Swap in the run's private provenance buffer; FlushProvenance merges
	// all buffers deterministically at drain.
	prov, err := provenance.NewManager(r.prov)
	if err != nil {
		return nil, err
	}
	env.Prov = prov
	am, err := startAM(env, driver, inputs, cmp.Or(j.req.Policy, s.cfg.Policy), core.Config{
		WorkflowID: r.ID,
		Tenant:     r.Tenant,
		Memo:       s.memo,
		MemoPrefix: prefix,
		Audit:      &runAudit{s: s, r: r},
	})
	if err != nil {
		return nil, err
	}
	if static, ok := driver.(wf.StaticDriver); ok && static.Graph() != nil {
		// The log is to hold a progress event per task and the finished
		// event: grow it once, now that the graph is built.
		r.mu.Lock()
		r.events = slices.Grow(r.events, len(static.Graph().All())+1)
		r.mu.Unlock()
	}
	eng.Run()
	return am.Report()
}

// finishRun settles a run's terminal state, releases its admission slot,
// dispatches the next queued runs, and publishes the finished event.
func (s *Server) finishRun(r *Run, rep *core.Report, runErr error) {
	now := s.now()
	succeeded := runErr == nil && rep != nil && rep.Succeeded
	var completed, outputs []string
	var makespan float64
	if rep != nil {
		for _, res := range rep.Results {
			if res.Succeeded() {
				completed = append(completed, res.Task.Name)
			}
		}
		sort.Strings(completed)
		outputs = rep.Outputs
		makespan = rep.MakespanSec
	}
	state := StateFailed
	if succeeded {
		state = StateSucceeded
	}
	r.mu.Lock()
	r.state = state
	r.endAt = now
	r.completedTasks = completed
	r.completedCount = len(completed)
	r.outputs = outputs
	r.makespan = makespan
	if runErr != nil {
		r.errMsg = runErr.Error()
	}
	e2e := now - r.submitAt
	r.mu.Unlock()

	if succeeded {
		s.completedC.Inc()
	} else {
		s.failedC.Inc()
	}
	s.e2eH.Observe(e2e)

	// The slot is free before anyone can see the run finish: a client that
	// waits on Done and resubmits at once is admitted, not refused 429. The
	// run is done before the server can read drained.
	s.mu.Lock()
	s.gate.Finish()
	s.inflight[r.Tenant]--
	admitted := s.dispatchLocked()
	r.publish(RunEvent{Type: EventFinished, At: now, State: state})
	close(r.done)
	s.checkDrainedLocked()
	s.mu.Unlock()

	s.cfg.Hook.OnFinished(now, r.Tenant, r.ID, succeeded)
	s.launch(admitted)
}

// StartDrain stops admission: new submissions get 503, queued and running
// runs finish. Drained is signalled once nothing is queued or running.
func (s *Server) StartDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.drainingG.Set(1)
	}
	s.checkDrainedLocked()
	s.mu.Unlock()
}

// checkDrainedLocked closes the drained channel once the server is draining
// and idle. Called with s.mu held.
func (s *Server) checkDrainedLocked() {
	if s.draining && !s.drainedClosed && s.gate.Depth() == 0 && s.gate.Running() == 0 {
		s.drainedClosed = true
		close(s.drainedCh)
	}
}

// Drained returns a channel closed when a drain has completed: StartDrain
// was called and every accepted run reached a terminal state.
func (s *Server) Drained() <-chan struct{} { return s.drainedCh }

// Wait blocks until every run goroutine has exited. Call after Drained to
// make the last run's bookkeeping visible before reading results.
func (s *Server) Wait() { s.wg.Wait() }

// admittedRuns returns the runs admitted so far, in admission order. The
// list is append-only, so the clipped slice stays valid unlocked.
func (s *Server) admittedRuns() []*Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitted[:len(s.admitted):len(s.admitted)]
}

// MergedProvenance merges every admitted run's provenance buffer using
// internal/shard's deterministic merge discipline — events ordered by
// (timestamp, admission index, within-run position) — so the merged trace is
// independent of goroutine scheduling. Call after Drained.
func (s *Server) MergedProvenance() []provenance.Event {
	admitted := s.admittedRuns()
	stores := make([]*provenance.MemStore, len(admitted))
	for i, r := range admitted {
		stores[i] = r.prov
	}
	return shard.MergeEvents(stores)
}

// FlushProvenance appends MergedProvenance to dst and returns how many
// events it appended.
func (s *Server) FlushProvenance(dst provenance.Store) (int, error) {
	merged := s.MergedProvenance()
	if ba, ok := dst.(provenance.BatchAppender); ok {
		return len(merged), ba.AppendBatch(merged)
	}
	for _, ev := range merged {
		if err := dst.Append(ev); err != nil {
			return 0, err
		}
	}
	return len(merged), nil
}

// Multiset renders the canonical completed-task multiset: one line per
// terminal run — "<id> <state> <sorted task names>" — sorted by run ID.
// A real-HTTP run and a same-seed deterministic replay that accept the
// same submissions produce byte-identical multisets, whatever the
// interleaving of clients and run goroutines.
func (s *Server) Multiset() []byte {
	var lines []string
	for _, r := range s.runs.All() {
		st := r.Status()
		if st.State != StateSucceeded && st.State != StateFailed {
			continue
		}
		lines = append(lines, fmt.Sprintf("%s %s %s", st.ID, st.State, strings.Join(st.CompletedTasks, ",")))
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}

// RunDeterministic drives a deterministic server through a full seeded
// traffic run on the virtual clock: SeededSubmissions(seed, profiles,
// durationSec) arrive through the real HTTP handlers over an in-process
// transport, 429s are retried after RetryAfterSec up to RetryLimit times
// (then dropped), admitted runs execute serially, and completions land at
// admitAt + makespan. The resulting Multiset is the ground truth a live
// run over real HTTP is compared against.
func (s *Server) RunDeterministic(seed int64, durationSec float64) error {
	if !s.cfg.Deterministic {
		return fmt.Errorf("service: RunDeterministic needs a server built with Deterministic=true")
	}
	if durationSec <= 0 {
		return fmt.Errorf("service: RunDeterministic needs a positive duration")
	}
	h := s.Handler()
	eng := s.vclock
	var attemptAt func(ts TimedSubmission, attempt int) func()
	attemptAt = func(ts TimedSubmission, attempt int) func() {
		return func() {
			body, err := json.Marshal(&ts.Req)
			if err != nil {
				return
			}
			req, err := http.NewRequest(http.MethodPost, "/v1/workflows", bytes.NewReader(body))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code == http.StatusTooManyRequests {
				if attempt < s.cfg.RetryLimit {
					eng.Schedule(s.cfg.RetryAfterSec, attemptAt(ts, attempt+1))
				} else {
					s.droppedC.Inc()
				}
			}
		}
	}
	for _, ts := range SeededSubmissions(seed, s.profiles, durationSec) {
		eng.At(ts.At, attemptAt(ts, 0))
	}
	for eng.Step() {
		// Serially execute whatever the event admitted; each run completes
		// at its admission time plus its (virtually simulated) makespan.
		ready := s.detReady
		s.detReady = nil
		for _, j := range ready {
			r := j.run
			rep, err := s.runWorkflow(j)
			makespan := 0.0
			if rep != nil {
				makespan = rep.MakespanSec
			}
			eng.Schedule(makespan, func() { s.finishRun(r, rep, err) })
		}
	}
	return nil
}
