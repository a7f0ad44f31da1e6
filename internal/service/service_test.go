package service

import (
	"reflect"
	"testing"

	"hiway/internal/chaos"
	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/memo"
	"hiway/internal/obs"
	"hiway/internal/recipes"
	"hiway/internal/sim"
	"hiway/internal/yarn"
)

// buildTestEnv materializes a small cluster configured for the profiles'
// tenant policies, mirroring how the load harness wires yarn and service.
func buildTestEnv(t *testing.T, nodes int, profiles []TenantProfile) (*sim.Engine, core.Env) {
	t.Helper()
	r := &recipes.Recipe{
		Name: "service-test",
		Groups: []recipes.NodeGroup{{
			Count: nodes,
			Spec:  cluster.NodeSpec{VCores: 8, MemMB: 16384, CPUFactor: 1, DiskMBps: 200, NetMBps: 200},
		}},
		SwitchMBps: 1000,
		YARN: yarn.Config{
			AMResource: yarn.Resource{VCores: 0, MemMB: 256},
			Tenants:    TenantPolicies(profiles),
		},
		Seed: 1,
	}
	eng, env, err := r.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return eng, env
}

func twoTenants() []TenantProfile {
	return []TenantProfile{
		{Name: "acme", Weight: 2, MaxContainers: 8, RatePerSec: 0.02},
		{Name: "labs", Weight: 1, MaxContainers: 4, RatePerSec: 0.01, Burst: 2},
	}
}

// runOnce drives one full service run and returns its accounts and stats.
func runOnce(t *testing.T, cfg Config, profiles []TenantProfile) ([]*Account, *Stats) {
	t.Helper()
	eng, env := buildTestEnv(t, 4, profiles)
	svc, err := New(eng, env, cfg, profiles)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	eng.Run()
	if svc.QueueDepth() != 0 || svc.Running() != 0 {
		t.Fatalf("service did not drain: depth=%d running=%d", svc.QueueDepth(), svc.Running())
	}
	return svc.Accounts(), svc.Stats()
}

func TestServiceDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{Seed: 42, DurationSec: 400, MaxConcurrent: 3, MaxQueue: 8, RetryLimit: 1}
	acc1, st1 := runOnce(t, cfg, twoTenants())
	acc2, st2 := runOnce(t, cfg, twoTenants())
	if len(acc1) == 0 {
		t.Fatal("no workflows submitted")
	}
	if !reflect.DeepEqual(acc1, acc2) {
		t.Fatal("same-seed runs produced different accounts")
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatal("same-seed runs produced different stats")
	}
	if st1.Succeeded == 0 {
		t.Fatal("no workflow succeeded")
	}
	for _, a := range acc1 {
		if a.Dropped {
			continue
		}
		if !a.Admitted {
			t.Fatalf("%s drained without admission or drop", a.ID)
		}
		if a.E2ESec < a.MakespanSec {
			t.Fatalf("%s: e2e %.1f < makespan %.1f", a.ID, a.E2ESec, a.MakespanSec)
		}
		if a.QueueWaitSec < 0 {
			t.Fatalf("%s: negative queue wait", a.ID)
		}
	}
}

func TestBackpressureRejectsAndRetries(t *testing.T) {
	// One admission slot and a queue of one, flooded by a fast tenant:
	// backpressure must reject, retried submissions must be accounted, and
	// the retry budget must bound the drops.
	profiles := []TenantProfile{{Name: "flood", RatePerSec: 0.2, Burst: 2}}
	cfg := Config{Seed: 7, DurationSec: 200, MaxConcurrent: 1, MaxQueue: 1, RetryAfterSec: 20, RetryLimit: 1}
	accounts, st := runOnce(t, cfg, profiles)
	if st.Rejections == 0 {
		t.Fatal("expected rejections under overload")
	}
	if st.Dropped == 0 {
		t.Fatal("expected drops once the retry budget is exhausted")
	}
	if st.RejectionRate <= 0 || st.RejectionRate >= 1 {
		t.Fatalf("rejection rate = %.2f, want in (0,1)", st.RejectionRate)
	}
	if st.Attempts != st.Submitted+st.Rejections {
		t.Fatalf("attempts %d != submitted %d + rejections %d", st.Attempts, st.Submitted, st.Rejections)
	}
	if st.Submitted != st.Admitted+st.Dropped {
		t.Fatalf("submitted %d != admitted %d + dropped %d after drain", st.Submitted, st.Admitted, st.Dropped)
	}
	for _, a := range accounts {
		if a.Dropped && a.Rejections != cfg.RetryLimit+1 {
			t.Fatalf("%s dropped after %d rejections, want %d", a.ID, a.Rejections, cfg.RetryLimit+1)
		}
	}
}

// recordingHook captures the service lifecycle for ordering assertions.
type recordingHook struct {
	queued   map[string][]string // tenant → ids in queue-entry order
	admitted map[string][]string // tenant → ids in admission order
	running  int
	maxRun   int
	rejected int
}

func newRecordingHook() *recordingHook {
	return &recordingHook{queued: map[string][]string{}, admitted: map[string][]string{}}
}

func (h *recordingHook) OnQueued(now float64, tenant, id string) {
	h.queued[tenant] = append(h.queued[tenant], id)
}

func (h *recordingHook) OnRejected(now float64, tenant, id string, retryAfter float64) {
	h.rejected++
}

func (h *recordingHook) OnAdmitted(now float64, tenant, id string) {
	h.admitted[tenant] = append(h.admitted[tenant], id)
	h.running++
	if h.running > h.maxRun {
		h.maxRun = h.running
	}
}

func (h *recordingHook) OnFinished(now float64, tenant, id string, ok bool) { h.running-- }

func TestAdmissionCapAndIntraTenantOrder(t *testing.T) {
	profiles := twoTenants()
	hook := newRecordingHook()
	cfg := Config{Seed: 11, DurationSec: 400, MaxConcurrent: 2, MaxQueue: 32, RetryLimit: 1, Hook: hook}
	_, st := runOnce(t, cfg, profiles)
	if st.Admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if hook.maxRun > cfg.MaxConcurrent {
		t.Fatalf("concurrent AMs peaked at %d, cap is %d", hook.maxRun, cfg.MaxConcurrent)
	}
	for tenant, q := range hook.queued {
		if !reflect.DeepEqual(q, hook.admitted[tenant]) {
			t.Fatalf("tenant %s admission order %v != queue order %v", tenant, hook.admitted[tenant], q)
		}
	}
}

// TestAMCapacityRequeueAdmitsOnce pins every AM to a node with room for two
// 256 MB AMs while the gate admits three: the third head fails to launch,
// goes back to the queue, and launches when a running AM finishes. It must
// be admitted once — one OnAdmitted, one tick of the admitted counter — not
// once per try.
func TestAMCapacityRequeueAdmitsOnce(t *testing.T) {
	profiles := twoTenants()
	r := TierRecipe("service-requeue", 3, 4, TenantPolicies(profiles), 1)
	r.Groups = append([]recipes.NodeGroup{{Count: 1, Spec: cluster.NodeSpec{
		VCores: 8, MemMB: 512, CPUFactor: 1, DiskMBps: 200, NetMBps: 200,
	}}}, r.Groups...)
	eng, env, err := r.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	env.Obs = obs.New(eng.Now)
	hook := newRecordingHook()
	cfg := Config{Seed: 42, DurationSec: 400, MaxConcurrent: 3, MaxQueue: 32, RetryLimit: 1, AMNode: "node-00", Hook: hook}
	svc, err := New(eng, env, cfg, profiles)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	eng.Run()
	st := svc.Stats()
	if svc.QueueDepth() != 0 || svc.Running() != 0 || st.Failed != 0 {
		t.Fatalf("service did not drain cleanly: depth=%d running=%d failed=%d", svc.QueueDepth(), svc.Running(), st.Failed)
	}
	if hook.maxRun != 2 {
		t.Fatalf("%d AMs ran at once on a node with room for 2", hook.maxRun)
	}
	var counted int64
	for tenant, q := range hook.queued {
		if !reflect.DeepEqual(q, hook.admitted[tenant]) {
			t.Fatalf("tenant %s admitted %v, queued %v", tenant, hook.admitted[tenant], q)
		}
		counted += svc.admittedC[tenant].Value()
	}
	if counted != int64(st.Admitted) || st.Admitted != st.Submitted {
		t.Fatalf("admitted counter %d, Stats().Admitted %d, submitted %d", counted, st.Admitted, st.Submitted)
	}
}

func TestServiceUnderChaosIsDeterministic(t *testing.T) {
	profiles := []TenantProfile{{Name: "acme", RatePerSec: 0.01}}
	run := func() ([]*Account, *Stats) {
		plan, err := chaos.Parse("crashrate=0.3", 9)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Seed: 3, DurationSec: 300, MaxConcurrent: 2, MaxQueue: 8, RetryLimit: 1,
			Chaos: plan,
		}
		return runOnce(t, cfg, profiles)
	}
	acc1, st1 := run()
	acc2, st2 := run()
	if !reflect.DeepEqual(acc1, acc2) || !reflect.DeepEqual(st1, st2) {
		t.Fatal("chaos runs with the same seeds diverged")
	}
	if st1.Succeeded == 0 {
		t.Fatal("crash-rate chaos should not defeat task retries entirely")
	}
}

func TestTraplineWorkloadKind(t *testing.T) {
	profiles := []TenantProfile{{
		Name: "rna", RatePerSec: 0.01,
		Workload: WorkloadSpec{Kind: WorkloadTRAPLINE, FileSizeMB: 32, CPUSeconds: 20},
	}}
	cfg := Config{Seed: 5, DurationSec: 150, MaxConcurrent: 2, MaxQueue: 8, RetryLimit: 1}
	_, st := runOnce(t, cfg, profiles)
	if st.Succeeded == 0 {
		t.Fatal("trapline workflows did not complete")
	}
}

func TestNewRejectsBadProfiles(t *testing.T) {
	eng, env := buildTestEnv(t, 1, nil)
	cases := [][]TenantProfile{
		nil,
		{{Name: "", RatePerSec: 1}},
		{{Name: "a", RatePerSec: 1}, {Name: "a", RatePerSec: 1}},
		{{Name: "a", RatePerSec: 0}},
		{{Name: "a", RatePerSec: 1, Workload: WorkloadSpec{Kind: "nope"}}},
	}
	for i, profiles := range cases {
		if _, err := New(eng, env, Config{}, profiles); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestTenantPolicies(t *testing.T) {
	got := TenantPolicies(twoTenants())
	want := map[string]yarn.TenantPolicy{
		"acme": {Weight: 2, MaxContainers: 8},
		"labs": {Weight: 1, MaxContainers: 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TenantPolicies = %v, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	if q := quantile(nil, 0.99); q != 0 {
		t.Fatalf("empty quantile = %g", q)
	}
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2 {
		t.Fatalf("p50 = %g, want 2", q)
	}
	if q := quantile(xs, 0.99); q != 4 {
		t.Fatalf("p99 = %g, want 4", q)
	}
	if q := quantile(xs, 0); q != 1 {
		t.Fatalf("p0 = %g, want 1", q)
	}
	if got := []float64{4, 1, 3, 2}; !reflect.DeepEqual(xs, got) {
		t.Fatal("quantile mutated its input")
	}
}

// TestServiceCrossTenantMemoization pins the service-tier sharing premise:
// both tenants submit the same pipeline shape under run-private roots, so
// after the first execution the shared table serves every later admission —
// across tenant boundaries — and the roll-up attributes the splices.
func TestServiceCrossTenantMemoization(t *testing.T) {
	base := Config{Seed: 42, DurationSec: 400, MaxConcurrent: 3, MaxQueue: 8, RetryLimit: 1}
	_, stOff := runOnce(t, base, twoTenants())

	on := base
	on.Memo = memo.New(0)
	accounts, stOn := runOnce(t, on, twoTenants())

	// Arrivals are seed-driven and independent of execution speed.
	if stOn.Submitted != stOff.Submitted {
		t.Fatalf("memo changed arrivals: %d vs %d", stOn.Submitted, stOff.Submitted)
	}
	if stOn.Succeeded < stOff.Succeeded {
		t.Fatalf("memo lost completions: %d vs %d", stOn.Succeeded, stOff.Succeeded)
	}
	if stOn.MemoizedTasks == 0 || stOn.MemoHits == 0 || stOn.MemoCPUSavedSec <= 0 {
		t.Fatalf("no memoized work recorded: %+v", stOn)
	}
	if stOff.MemoizedTasks != 0 || stOff.MemoHits != 0 {
		t.Fatalf("memo-off run recorded memo work: %+v", stOff)
	}
	perWorkflow := 0
	for _, a := range accounts {
		perWorkflow += a.Memoized
	}
	if perWorkflow != stOn.MemoizedTasks {
		t.Fatalf("workflow attribution %d != total %d", perWorkflow, stOn.MemoizedTasks)
	}
	// The first admitted workflow runs cold; at least one later one splices
	// its full task set.
	full := false
	for _, a := range accounts {
		if a.Admitted && a.Memoized == a.Tasks && a.Tasks > 0 {
			full = true
		}
	}
	if !full {
		t.Fatal("no workflow was fully served from the memo table")
	}
	if tenants := len(stOn.Tenants); tenants != 2 {
		t.Fatalf("tenants: %d", tenants)
	}
}

// TestServiceMemoOptOut pins the per-tenant escape hatch end to end: the
// opted-out tenant's workflows always execute, while the other tenant still
// benefits from the shared table.
func TestServiceMemoOptOut(t *testing.T) {
	profiles := twoTenants()
	profiles[1].MemoOptOut = true
	cfg := Config{Seed: 42, DurationSec: 400, MaxConcurrent: 3, MaxQueue: 8, RetryLimit: 1, Memo: memo.New(0)}
	accounts, _ := runOnce(t, cfg, profiles)
	memoized := map[string]int{}
	for _, a := range accounts {
		memoized[a.Tenant] += a.Memoized
	}
	if memoized["labs"] != 0 {
		t.Fatalf("opted-out tenant memoized %d tasks", memoized["labs"])
	}
	if memoized["acme"] == 0 {
		t.Fatal("participating tenant never hit the shared table")
	}
}
