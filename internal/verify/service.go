package verify

import (
	"fmt"
	"math/rand"
	"reflect"

	"hiway/internal/chaos"
	"hiway/internal/core"
	"hiway/internal/scheduler"
	"hiway/internal/service"
	"hiway/internal/sim"
	"hiway/internal/yarn"
)

// Service-tier invariants, audited when a scenario carries a ServiceSpec.
const (
	// InvTenantQuota: a tenant's live worker-container count never exceeds
	// its MaxContainers cap at any instant.
	InvTenantQuota = "tenant-quota"
	// InvAdmitOrder: within one tenant, workflows are admitted in exactly
	// the order they entered the submission queue, and the global
	// concurrent-AM cap is never exceeded.
	InvAdmitOrder = "admission-order"
)

// ServiceTenantSpec declares one tenant of a generated service scenario.
type ServiceTenantSpec struct {
	Name          string  `json:"name"`
	Weight        int     `json:"weight"`
	MaxContainers int     `json:"maxContainers"`
	RatePerSec    float64 `json:"ratePerSec"`
	Burst         int     `json:"burst,omitempty"`
}

// ServiceSpec makes a scenario multi-tenant: alongside the single-workflow
// policy matrix, the verifier runs an open-loop multi-workflow service load
// with these tenants and audits the service-tier invariants.
type ServiceSpec struct {
	Tenants       []ServiceTenantSpec `json:"tenants"`
	DurationSec   float64             `json:"durationSec"`
	MaxConcurrent int                 `json:"maxConcurrent"`
	MaxQueue      int                 `json:"maxQueue"`
}

// genService attaches a service tier to roughly a third of all scenarios.
// It draws from the rng strictly after genChaos, so seeds generated before
// the service tier existed keep their exact task list and chaos plan.
func (s *Scenario) genService(r *rand.Rand) {
	if r.Intn(3) != 0 {
		return
	}
	spec := &ServiceSpec{
		DurationSec:   200 + float64(r.Intn(201)), // 200..400s arrival window
		MaxConcurrent: 2 + r.Intn(3),
		MaxQueue:      4 + r.Intn(9),
	}
	n := 2 + r.Intn(2) // 2..3 tenants
	for i := 0; i < n; i++ {
		spec.Tenants = append(spec.Tenants, ServiceTenantSpec{
			Name:          fmt.Sprintf("tenant-%d", i),
			Weight:        r.Intn(3), // 0 = background tenant
			MaxContainers: 2 + r.Intn(6),
			RatePerSec:    0.01 + float64(float64(r.Intn(4))*0.005),
			Burst:         1 + r.Intn(2),
		})
	}
	s.Service = spec
}

// profiles materializes the spec as service tenant profiles. Workflows are
// kept tiny: a service scenario runs many instances, and the invariants
// under test live in admission and quota accounting, not task runtimes.
func (s *ServiceSpec) profiles() []service.TenantProfile {
	out := make([]service.TenantProfile, len(s.Tenants))
	for i, t := range s.Tenants {
		out[i] = service.TenantProfile{
			Name: t.Name, Weight: t.Weight, MaxContainers: t.MaxContainers,
			RatePerSec: t.RatePerSec, Burst: t.Burst,
			Workload: service.WorkloadSpec{FileSizeMB: 32, CPUSeconds: 20},
		}
	}
	return out
}

// TenantAuditor checks the tenant-quota invariant at the RM's container
// lifecycle hooks: worker containers are counted per tenant the instant they
// are allocated, so a cap breach is caught at the exact event that caused
// it, not at end-of-run. AM containers are quota-exempt by design (§3.1:
// one lightweight AM per workflow) and are ignored.
type TenantAuditor struct {
	caps       map[string]int
	use        map[string]int
	violations []Violation
	dropped    int
}

var _ yarn.AuditHook = (*TenantAuditor)(nil)

// NewTenantAuditor builds an auditor over the tenant policies the RM was
// configured with.
func NewTenantAuditor(policies map[string]yarn.TenantPolicy) *TenantAuditor {
	caps := make(map[string]int, len(policies))
	for name, p := range policies {
		caps[name] = p.MaxContainers
	}
	return &TenantAuditor{caps: caps, use: make(map[string]int)}
}

func (a *TenantAuditor) report(now float64, invariant, format string, args ...any) {
	if len(a.violations) >= maxViolations {
		a.dropped++
		return
	}
	a.violations = append(a.violations, Violation{TimeSec: now, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// OnContainerAllocated implements yarn.AuditHook.
func (a *TenantAuditor) OnContainerAllocated(now float64, c *yarn.Container) {
	if c.AM || c.Tenant == "" {
		return
	}
	a.use[c.Tenant]++
	if cap, ok := a.caps[c.Tenant]; ok && cap > 0 && a.use[c.Tenant] > cap {
		a.report(now, InvTenantQuota, "tenant %s holds %d worker containers, cap is %d",
			c.Tenant, a.use[c.Tenant], cap)
	}
}

// OnContainerReleased implements yarn.AuditHook.
func (a *TenantAuditor) OnContainerReleased(now float64, c *yarn.Container, double bool) {
	if double || c.AM || c.Tenant == "" {
		return
	}
	a.use[c.Tenant]--
	if a.use[c.Tenant] < 0 {
		a.report(now, InvTenantQuota, "tenant %s container count went negative", c.Tenant)
	}
}

// OnContainerLost implements yarn.AuditHook: a node death frees the tenant's
// quota slot exactly like a release.
func (a *TenantAuditor) OnContainerLost(now float64, c *yarn.Container) {
	a.OnContainerReleased(now, c, false)
}

// OnNodeDead implements yarn.AuditHook.
func (a *TenantAuditor) OnNodeDead(now float64, node string) {}

// OnNodeJoined implements yarn.AuditHook.
func (a *TenantAuditor) OnNodeJoined(now float64, node string, vcores, memMB int) {}

// OnNodeDraining implements yarn.AuditHook.
func (a *TenantAuditor) OnNodeDraining(now float64, node string) {}

// OnNodeRemoved implements yarn.AuditHook.
func (a *TenantAuditor) OnNodeRemoved(now float64, node string) {}

// FinalCheck verifies every tenant's count returned to zero and returns the
// full violation list.
func (a *TenantAuditor) FinalCheck(now float64) []Violation {
	for _, tenant := range sortedKeys(a.use) {
		if n := a.use[tenant]; n != 0 {
			a.report(now, InvQuiesce, "tenant %s ended with %d containers accounted live", tenant, n)
		}
	}
	if a.dropped > 0 {
		a.report(now, InvQuiesce, "%d further violations suppressed", a.dropped)
	}
	return a.violations
}

// orderRecorder captures the service lifecycle to check the admission-order
// invariant after the run.
type orderRecorder struct {
	queued   map[string][]string
	admitted map[string][]string
	running  int
	maxRun   int
	maxRunAt float64
}

var _ service.Hook = (*orderRecorder)(nil)

func newOrderRecorder() *orderRecorder {
	return &orderRecorder{queued: map[string][]string{}, admitted: map[string][]string{}}
}

func (h *orderRecorder) OnQueued(now float64, tenant, id string) {
	h.queued[tenant] = append(h.queued[tenant], id)
}

func (h *orderRecorder) OnRejected(now float64, tenant, id string, retryAfterSec float64) {}

func (h *orderRecorder) OnAdmitted(now float64, tenant, id string) {
	h.admitted[tenant] = append(h.admitted[tenant], id)
	h.running++
	if h.running > h.maxRun {
		h.maxRun, h.maxRunAt = h.running, now
	}
}

func (h *orderRecorder) OnFinished(now float64, tenant, id string, succeeded bool) { h.running-- }

// check audits the recorded lifecycle: per-tenant admission order must equal
// queue-entry order (every queued workflow is eventually admitted — the
// queue drains only through admission), and the concurrent-AM cap holds.
func (h *orderRecorder) check(now float64, maxConcurrent int) []Violation {
	var out []Violation
	if h.maxRun > maxConcurrent {
		out = append(out, Violation{TimeSec: h.maxRunAt, Invariant: InvAdmitOrder,
			Detail: fmt.Sprintf("%d AMs ran concurrently, cap is %d", h.maxRun, maxConcurrent)})
	}
	for _, tenant := range sortedKeys(h.queued) {
		if q := h.queued[tenant]; !reflect.DeepEqual(q, h.admitted[tenant]) {
			out = append(out, Violation{TimeSec: now, Invariant: InvAdmitOrder,
				Detail: fmt.Sprintf("tenant %s admitted %v, queue order was %v", tenant, h.admitted[tenant], q)})
		}
	}
	return out
}

// materializeService builds the substrate for the service-tier run: the
// scenario's own cluster and replication-2 HDFS (so the generated
// single-node kills never destroy the only copy of a block), with the
// tenant policies and a 256 MB zero-vcore AM container in the RM, and no staged inputs — each service workflow stages its own.
func (s *Scenario) materializeService(profiles []service.TenantProfile) (*sim.Engine, core.Env, error) {
	r := s.recipe()
	r.YARN = yarn.Config{
		AMResource: yarn.Resource{VCores: 0, MemMB: 256},
		Tenants:    service.TenantPolicies(profiles),
	}
	r.Inputs = nil
	return r.Materialize()
}

// runService executes the scenario's service tier to quiescence and audits
// the tenant-quota and admission-order invariants. The scenario's chaos plan
// is re-armed for this run; its task-signature rules target the generated
// DAG's signatures (which the service workloads do not use), so the service
// tier sees exactly the plan's node-level faults. AMs are pinned to node-00,
// which genChaos never kills.
func runService(sc *Scenario, tamper func(core.Env)) PolicyRun {
	run := PolicyRun{Policy: "service", Completed: map[string]int{}}
	profiles := sc.Service.profiles()
	eng, env, err := sc.materializeService(profiles)
	if err != nil {
		run.Err = fmt.Sprintf("materialize: %v", err)
		return run
	}
	if tamper != nil {
		tamper(env)
	}
	aud := NewTenantAuditor(service.TenantPolicies(profiles))
	env.RM.SetAudit(aud)
	rec := newOrderRecorder()
	cfg := service.Config{
		Seed:          sc.Seed,
		DurationSec:   sc.Service.DurationSec,
		MaxConcurrent: sc.Service.MaxConcurrent,
		MaxQueue:      sc.Service.MaxQueue,
		RetryAfterSec: 15,
		RetryLimit:    2,
		Policy:        scheduler.PolicyFCFS,
		AMNode:        "node-00",
		Hook:          rec,
	}
	if sc.Chaos != "" {
		plan, err := chaos.Parse(sc.Chaos, sc.ChaosSeed)
		if err != nil {
			run.Err = fmt.Sprintf("chaos plan: %v", err)
			return run
		}
		plan.Arm(eng, env.RM, env.FS, env.Cluster)
		cfg.Chaos = plan
	}
	svc, err := service.New(eng, env, cfg, profiles)
	if err != nil {
		run.Err = fmt.Sprintf("service: %v", err)
		return run
	}
	svc.Start()
	eng.Run()

	now := eng.Now()
	run.Violations = aud.FinalCheck(now)
	run.Violations = append(run.Violations, rec.check(now, cfg.MaxConcurrent)...)
	if d, r := svc.QueueDepth(), svc.Running(); d != 0 || r != 0 {
		run.Violations = append(run.Violations, Violation{TimeSec: now, Invariant: InvQuiesce,
			Detail: fmt.Sprintf("service never drained: %d queued, %d running at quiesce", d, r)})
	}
	run.Violations = append(run.Violations, costViolations(env.RM.CostReport(), now)...)
	run.Violations = append(run.Violations, provenanceOrder(env.Prov)...)
	st := svc.Stats()
	if st.Submitted != st.Admitted+st.Dropped {
		run.Violations = append(run.Violations, Violation{TimeSec: now, Invariant: InvQuiesce,
			Detail: fmt.Sprintf("accounting leak: submitted %d != admitted %d + dropped %d",
				st.Submitted, st.Admitted, st.Dropped)})
	}
	run.Succeeded = true
	run.MakespanSec = st.WindowSec
	run.Executed = st.Admitted
	return run
}
