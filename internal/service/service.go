package service

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"hiway/internal/chaos"
	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/memo"
	"hiway/internal/obs"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/sim"
	"hiway/internal/wf"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

// TenantProfile describes one tenant's traffic and resource policy.
type TenantProfile struct {
	// Name identifies the tenant (must be unique across profiles).
	Name string
	// Weight is the tenant's fair-share weight in the YARN allocator
	// (see yarn.TenantPolicy); 0 declares a background tenant.
	Weight int
	// MaxContainers caps the tenant's concurrent worker containers (hard
	// quota, AM exempt); 0 means no cap.
	MaxContainers int
	// RatePerSec is the mean Poisson rate of arrival events. Each event
	// submits Burst workflows at the same instant (open-loop: arrivals do
	// not wait for completions).
	RatePerSec float64
	// Burst is the number of workflows submitted per arrival event
	// (default 1; >1 models bursty clients).
	Burst int
	// Workload picks the DAG generator for this tenant's submissions.
	Workload WorkloadSpec
	// MaxInFlight caps the tenant's concurrently accepted workflows
	// (queued + running) in the network server; excess submissions are
	// rejected with 429 and a retry-after hint. 0 means no cap. The
	// seeded-arrival Service ignores it (its backpressure is global).
	MaxInFlight int
	// MemoOptOut excludes this tenant from cross-tenant memoization: its
	// workflows neither consume memo entries nor contribute any.
	MemoOptOut bool
}

// validateProfiles checks and normalizes a tenant profile list in place:
// unique non-empty names, defaulted bursts and workload specs. With
// needRates (the seeded-arrival tiers: Service, and Server's deterministic
// mode), every profile must also declare a positive arrival rate; the
// network server accepts rate-less profiles, which submit over HTTP only.
func validateProfiles(profiles []TenantProfile, needRates bool) error {
	if len(profiles) == 0 {
		return fmt.Errorf("service: no tenant profiles")
	}
	seen := map[string]bool{}
	for i := range profiles {
		p := &profiles[i]
		if p.Name == "" {
			return fmt.Errorf("service: profile %d has no name", i)
		}
		if seen[p.Name] {
			return fmt.Errorf("service: duplicate tenant %q", p.Name)
		}
		seen[p.Name] = true
		if needRates && p.RatePerSec <= 0 {
			return fmt.Errorf("service: tenant %q needs a positive arrival rate", p.Name)
		}
		orDefault(&p.Burst, 1)
		p.Workload.setDefaults()
		if err := p.Workload.validate(); err != nil {
			return fmt.Errorf("service: tenant %q: %w", p.Name, err)
		}
	}
	return nil
}

// TenantPolicies derives the yarn allocator configuration from the profiles,
// so the RM and the service agree on weights and quotas by construction.
func TenantPolicies(profiles []TenantProfile) map[string]yarn.TenantPolicy {
	out := make(map[string]yarn.TenantPolicy, len(profiles))
	for _, p := range profiles {
		out[p.Name] = yarn.TenantPolicy{Weight: p.Weight, MaxContainers: p.MaxContainers}
	}
	return out
}

// tierHDFS is the service tier's HDFS layout: the defaults, 128 MB blocks
// with 3 replicas. Submission validation bounds input sizes by it.
var tierHDFS = hdfs.Config{}

// TierRecipe is the service tier's substrate, shared by the load harnesses
// and every run the network server executes: nodes workers of 8 vcores and
// 16 GB, a switch of 100 MB/s per node for switchNodes nodes (a fleet that
// grows toward switchNodes keeps one switch), HDFS's default layout
// (tierHDFS), and YARN with a memory-only 256 MB AM under the tenants'
// weights and quotas.
func TierRecipe(name string, nodes, switchNodes int, tenants map[string]yarn.TenantPolicy, seed int64) *recipes.Recipe {
	return &recipes.Recipe{
		Name: name,
		Groups: []recipes.NodeGroup{{Count: nodes, Spec: cluster.NodeSpec{
			VCores: 8, MemMB: 16384, CPUFactor: 1, DiskMBps: 200, NetMBps: 200,
		}}},
		SwitchMBps: 100 * float64(switchNodes),
		HDFS:       tierHDFS,
		YARN: yarn.Config{
			AMResource: yarn.Resource{VCores: 0, MemMB: 256},
			Tenants:    tenants,
		},
		Seed: seed,
	}
}

// Config tunes the service tier.
type Config struct {
	// Seed drives every random draw (arrival times, bursts). Same seed,
	// same profiles → identical schedule.
	Seed int64
	// DurationSec is the arrival-generation window: arrivals occur in
	// [0, DurationSec); the run then drains. Default 3600.
	DurationSec float64
	// MaxConcurrent caps admitted (running) AMs. Default 4.
	MaxConcurrent int
	// MaxQueue is the backpressure threshold: a submission arriving with
	// MaxQueue workflows already queued is rejected. Default 16.
	MaxQueue int
	// RetryAfterSec is the retry-after hint attached to rejections; the
	// simulated client re-submits after this delay. Default 30.
	RetryAfterSec float64
	// RetryLimit is how many times a rejected submission retries before it
	// is dropped; 0 (or less) drops it at its first rejection.
	RetryLimit int
	// Policy is the per-workflow scheduling policy (default fcfs).
	Policy string
	// AMNode optionally pins every workflow's AM container to one node.
	AMNode string
	// Chaos, if set, injects task-level faults into every workflow.
	Chaos chaos.Injector
	// Memo, if set, is the cluster-wide memo table shared by every admitted
	// workflow: repeated submissions of the same pipeline splice completed
	// tasks from it instead of re-executing (per-tenant opt-out via
	// TenantProfile.MemoOptOut). Nil disables memoization.
	Memo *memo.Table
	// Hook, if set, observes the service lifecycle (the verify layer's
	// admission-order auditor installs itself here).
	Hook Hook
}

func (c *Config) setDefaults() {
	orDefault(&c.DurationSec, 3600)
	orDefault(&c.MaxConcurrent, 4)
	orDefault(&c.MaxQueue, 16)
	orDefault(&c.RetryAfterSec, 30)
	orDefault(&c.Policy, scheduler.PolicyFCFS)
	c.Hook = cmp.Or(c.Hook, Hook(nopHook{}))
}

// Hook observes service lifecycle transitions. Hooks run synchronously
// inside the service and must not call back into it.
type Hook interface {
	// OnQueued fires when a submission is accepted into the queue.
	OnQueued(now float64, tenant, id string)
	// OnRejected fires when backpressure rejects a submission attempt.
	OnRejected(now float64, tenant, id string, retryAfterSec float64)
	// OnAdmitted fires when a queued workflow is admitted (its AM launches).
	OnAdmitted(now float64, tenant, id string)
	// OnFinished fires when an admitted workflow terminates.
	OnFinished(now float64, tenant, id string, succeeded bool)
}

// nopHook is the Hook of a service or server configured without one.
type nopHook struct{}

// OnQueued does nothing.
func (nopHook) OnQueued(float64, string, string) {}

// OnRejected does nothing.
func (nopHook) OnRejected(float64, string, string, float64) {}

// OnAdmitted does nothing.
func (nopHook) OnAdmitted(float64, string, string) {}

// OnFinished does nothing.
func (nopHook) OnFinished(float64, string, string, bool) {}

// Account is one workflow's service-level record.
type Account struct {
	ID     string
	Tenant string

	SubmitAt float64 // first submission attempt
	QueuedAt float64 // accepted into the queue (== last attempt's time)
	AdmitAt  float64 // AM launched
	EndAt    float64 // terminal

	QueueWaitSec float64 // AdmitAt - QueuedAt
	MakespanSec  float64 // EndAt - AdmitAt
	E2ESec       float64 // EndAt - SubmitAt

	Tasks      int
	Memoized   int  // tasks spliced from the memo table instead of executed
	Rejections int  // rejected submission attempts
	Admitted   bool // reached an AM launch
	Succeeded  bool
	Dropped    bool // rejected past RetryLimit, never queued
}

// pendingWF is a queued workflow awaiting admission.
type pendingWF struct {
	id     string // "<tenant>-<name>"
	tenant string
	name   string // the tenant's sequence-numbered run name, wNNN
	spec   WorkloadSpec
	acct   *Account
	span   obs.SpanID
	am     *core.AM // once launched, until its AM ends
}

// Service runs the submission queue, admission control and accounting over
// one materialized environment. Build with New, call Start, then drive the
// engine to quiescence and read Stats.
type Service struct {
	eng      *sim.Engine
	env      core.Env
	cfg      Config
	profiles []TenantProfile

	gate     *fifoGate[*pendingWF]
	pumping  bool
	accounts []*Account
	live     []*pendingWF // launched workflows whose AM has not ended, in launch order

	tr       *obs.Tracer
	compiled compileTable

	submittedC map[string]*obs.Counter // per tenant
	rejectedC  map[string]*obs.Counter
	admittedC  map[string]*obs.Counter
	droppedC   *obs.Counter
	completedC *obs.Counter
	failedC    *obs.Counter
	depthG     *obs.Gauge
	runningG   *obs.Gauge
	queueWaitH *obs.Histogram
	e2eH       *obs.Histogram
}

// New validates the profiles and builds the service over the environment.
// The environment should come from TierRecipe (or another recipe with
// TenantPolicies(profiles)) for the quotas and weights to take effect.
func New(eng *sim.Engine, env core.Env, cfg Config, profiles []TenantProfile) (*Service, error) {
	cfg.setDefaults()
	if err := validateProfiles(profiles, true); err != nil {
		return nil, err
	}
	s := &Service{eng: eng, env: env, cfg: cfg, profiles: profiles,
		gate: newFifoGate[*pendingWF](cfg.MaxConcurrent, cfg.MaxQueue)}
	if cfg.Memo != nil {
		for _, p := range profiles {
			if p.MemoOptOut {
				cfg.Memo.SetOptOut(p.Name)
			}
		}
		cfg.Memo.SetObs(env.Obs)
	}
	s.tr = env.Obs.T()
	m := env.Obs.M()
	s.submittedC = make(map[string]*obs.Counter, len(profiles))
	s.rejectedC = make(map[string]*obs.Counter, len(profiles))
	s.admittedC = make(map[string]*obs.Counter, len(profiles))
	for _, p := range profiles {
		s.submittedC[p.Name] = m.CounterL("hiway_svc_submissions_total",
			"workflow submission attempts", "tenant", p.Name)
		s.rejectedC[p.Name] = m.CounterL("hiway_svc_rejections_total",
			"submission attempts rejected by backpressure", "tenant", p.Name)
		s.admittedC[p.Name] = m.CounterL("hiway_svc_admitted_total",
			"workflows admitted (AM launched)", "tenant", p.Name)
	}
	s.droppedC = m.Counter("hiway_svc_dropped_total", "workflows dropped after exhausting rejection retries")
	s.completedC = m.Counter("hiway_svc_completed_total", "workflows that terminated successfully")
	s.failedC = m.Counter("hiway_svc_failed_total", "workflows that terminated in failure")
	s.depthG = m.Gauge("hiway_svc_queue_depth", "workflows currently queued for admission")
	s.runningG = m.Gauge("hiway_svc_running", "workflows currently admitted and running")
	s.queueWaitH = m.Histogram("hiway_svc_queue_wait_seconds",
		"virtual seconds from queue entry to admission",
		[]float64{1, 5, 10, 30, 60, 120, 300, 600, 1800})
	s.e2eH = m.Histogram("hiway_svc_e2e_latency_seconds",
		"virtual seconds from first submission to workflow end",
		[]float64{30, 60, 120, 300, 600, 1800, 3600, 7200})
	return s, nil
}

// Start registers the seeded arrival schedule — SeededSubmissions, the same
// list the network server's deterministic replay submits — with the engine.
// The caller then drives the engine (Run) until the service drains.
func (s *Service) Start() {
	for _, ts := range SeededSubmissions(s.cfg.Seed, s.profiles, s.cfg.DurationSec) {
		w := &pendingWF{
			id:     ts.Req.Tenant + "-" + ts.Req.Name,
			tenant: ts.Req.Tenant,
			name:   ts.Req.Name,
			spec:   *ts.Req.Workload,
		}
		s.eng.At(ts.At, func() { s.submitAttempt(w, 0) })
	}
}

// submitAttempt is one client-side submission try (attempt 0 is the
// arrival; later attempts are post-rejection retries).
func (s *Service) submitAttempt(w *pendingWF, attempt int) {
	now := s.eng.Now()
	s.submittedC[w.tenant].Inc()
	if attempt == 0 {
		w.acct = &Account{ID: w.id, Tenant: w.tenant, SubmitAt: now}
		s.accounts = append(s.accounts, w.acct)
	}
	if s.gate.Full() {
		// Backpressure: reject with a retry-after hint.
		w.acct.Rejections++
		s.rejectedC[w.tenant].Inc()
		s.tr.Instant("svc", "rejected", "service")
		s.cfg.Hook.OnRejected(now, w.tenant, w.id, s.cfg.RetryAfterSec)
		if attempt < s.cfg.RetryLimit {
			s.eng.Schedule(s.cfg.RetryAfterSec, func() { s.submitAttempt(w, attempt+1) })
			return
		}
		w.acct.Dropped = true
		w.acct.EndAt = now
		s.droppedC.Inc()
		return
	}
	w.acct.QueuedAt = now
	w.span = s.tr.BeginAsync("svc", w.id, "service", 0)
	s.tr.Arg(w.span, "tenant", w.tenant)
	s.gate.Enqueue(w)
	s.cfg.Hook.OnQueued(now, w.tenant, w.id)
	s.pump()
}

// pump admits queued workflows through the shared fifoGate in strict FIFO
// order while the concurrency budget allows. Admission never skips the
// queue head: if the head cannot launch (AM capacity), the pump stalls
// until a running workflow finishes and frees resources — head-of-line
// blocking is what preserves intra-tenant admission order, one of the
// audited service invariants.
func (s *Service) pump() {
	if s.pumping {
		return
	}
	s.pumping = true
	defer func() { s.pumping = false }()
	for {
		w, ok := s.gate.Next()
		if !ok {
			break
		}
		if s.admit(w) != nil {
			if s.gate.Running() > 1 {
				// Resources will free when a running AM finishes; put the
				// head back and wait.
				s.gate.Requeue(w)
				break
			}
			// Nothing running and still unlaunchable: terminal failure.
			s.gate.Finish()
			s.terminate(w, false)
		}
	}
	s.depthG.Set(float64(s.gate.Depth()))
	s.runningG.Set(float64(s.gate.Running()))
}

// admit stages the workflow's inputs and launches its AM. The caller has
// already charged the concurrency budget. The workflow counts as admitted
// only once its AM has launched: a head that fails to launch is requeued or
// failed by the pump, and admitted at most once.
func (s *Service) admit(w *pendingWF) error {
	prefix := fmt.Sprintf("/svc/%s/%s", w.tenant, w.name)
	driver, inputs, err := s.compiled.specRun(prefix, w.spec)
	if err != nil {
		return err
	}
	w.acct.Tasks = len(driver.Graph().All())
	am, err := startAM(s.env, driver, inputs, s.cfg.Policy, core.Config{
		WorkflowID: w.id,
		Tenant:     w.tenant,
		AMNode:     s.cfg.AMNode,
		Chaos:      s.cfg.Chaos,
		Memo:       s.cfg.Memo,
		MemoPrefix: prefix,
		OnTerminal: func(rep *core.Report) { s.onTerminal(w, rep) },
	})
	if err != nil {
		return err
	}
	if !am.Finished() { // a workflow with no work ends inside Launch
		w.am = am
		s.live = append(s.live, w)
	}
	s.markAdmitted(w)
	return nil
}

// startAM stages the inputs and launches the driver's AM under the policy,
// predicting from cfg.Memo if set: every Service and Server run starts here.
func startAM(env core.Env, driver wf.Driver, inputs []workloads.Input, policy string, cfg core.Config) (*core.AM, error) {
	if err := workloads.Stage(env.FS, inputs); err != nil {
		return nil, err
	}
	deps := scheduler.Deps{Locality: env.FS, Estimator: env.Prov}
	if cfg.Memo != nil {
		deps.Predictor = cfg.Memo
	}
	sched, err := scheduler.New(policy, deps)
	if err != nil {
		return nil, err
	}
	return core.Launch(env, driver, sched, cfg)
}

// EndStalled ends, in launch order, every workflow whose AM the engine left
// unfinished — it quiesced with the workflow's work outstanding — through
// the AM's stall report (core.AM.Report): the run's record ends with its
// workflow-end and its account settles as failed. It returns the stall
// errors joined, or nil when no workflow stalled. Ending a workflow frees
// its slot, which can admit a queued one, so the caller runs the engine
// again until EndStalled returns nil.
func (s *Service) EndStalled() error {
	var errs []error
	for _, w := range slices.Clone(s.live) {
		if _, err := w.am.Report(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// markAdmitted records a launched AM's admission, once.
func (s *Service) markAdmitted(w *pendingWF) {
	if w.acct.Admitted {
		return
	}
	now := s.eng.Now()
	w.acct.AdmitAt = now
	w.acct.Admitted = true
	w.acct.QueueWaitSec = now - w.acct.QueuedAt
	s.admittedC[w.tenant].Inc()
	s.queueWaitH.Observe(w.acct.QueueWaitSec)
	s.tr.Arg(w.span, "admitted", "true")
	s.cfg.Hook.OnAdmitted(now, w.tenant, w.id)
}

// onTerminal settles the account when a workflow's AM reaches a terminal
// report, then re-pumps the queue.
func (s *Service) onTerminal(w *pendingWF, rep *core.Report) {
	if w.am != nil {
		w.am = nil
		s.live = slices.DeleteFunc(s.live, func(x *pendingWF) bool { return x == w })
	}
	s.markAdmitted(w) // a workflow with no work terminates inside Launch
	s.gate.Finish()
	w.acct.Memoized = rep.Memoized
	s.terminate(w, rep.Succeeded)
	s.pump()
}

// terminate finalizes one workflow's account and metrics.
func (s *Service) terminate(w *pendingWF, succeeded bool) {
	now := s.eng.Now()
	w.acct.EndAt = now
	w.acct.Succeeded = succeeded
	if w.acct.Admitted {
		w.acct.MakespanSec = now - w.acct.AdmitAt
	}
	w.acct.E2ESec = now - w.acct.SubmitAt
	s.e2eH.Observe(w.acct.E2ESec)
	if succeeded {
		s.completedC.Inc()
	} else {
		s.failedC.Inc()
	}
	s.tr.Arg(w.span, "succeeded", fmt.Sprintf("%v", succeeded))
	s.tr.End(w.span)
	if w.acct.Admitted {
		s.cfg.Hook.OnFinished(now, w.tenant, w.id, succeeded)
	}
	s.depthG.Set(float64(s.gate.Depth()))
	s.runningG.Set(float64(s.gate.Running()))
}

// QueueDepth returns the number of workflows waiting for admission.
func (s *Service) QueueDepth() int { return s.gate.Depth() }

// Running returns the number of admitted, unfinished workflows.
func (s *Service) Running() int { return s.gate.Running() }

// Accounts returns every workflow's record in submission order.
func (s *Service) Accounts() []*Account {
	out := append([]*Account(nil), s.accounts...)
	slices.SortStableFunc(out, func(a, b *Account) int {
		return cmp.Or(cmp.Compare(a.SubmitAt, b.SubmitAt), cmp.Compare(a.ID, b.ID))
	})
	return out
}
