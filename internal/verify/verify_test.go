package verify

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hiway/internal/core"
	"hiway/internal/provenance"
	"hiway/internal/yarn"
)

// TestGenerateDeterministic pins the generator contract: the same seed must
// yield byte-identical scenarios (the whole verifier depends on it).
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, b := Generate(seed).Marshal(), Generate(seed).Marshal()
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two generations differ:\n%s\n%s", seed, a, b)
		}
	}
}

// TestGeneratedScenariosParse checks structural validity over a seed sweep:
// every generated scenario must build a driver whose DAG validates (acyclic,
// producers known) and whose task count matches the spec.
func TestGeneratedScenariosParse(t *testing.T) {
	shapesSeen := map[string]bool{}
	for seed := int64(1); seed <= 60; seed++ {
		sc := Generate(seed)
		shapesSeen[sc.Shape] = true
		ready, err := sc.Driver().Parse()
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sc.Shape, err)
		}
		if len(ready) == 0 {
			t.Fatalf("seed %d (%s): no initially ready tasks", seed, sc.Shape)
		}
		if sc.Nodes < 3 || sc.Nodes > 8 {
			t.Fatalf("seed %d: %d nodes out of range", seed, sc.Nodes)
		}
	}
	for _, shape := range shapes {
		if !shapesSeen[shape] {
			t.Errorf("60 seeds never produced shape %q", shape)
		}
	}
}

// TestScenarioRoundTrip pins the reproducer format: Marshal → ParseScenario
// is the identity.
func TestScenarioRoundTrip(t *testing.T) {
	sc := Generate(7)
	back, err := ParseScenario(sc.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sc.Marshal(), back.Marshal()) {
		t.Fatalf("round-trip changed the scenario")
	}
}

// TestCheckScenarioSeedBatch is the in-repo slice of the CI seed batch:
// every seed must pass every policy, the resume variant, and all invariants.
// The full 200-seed batch runs via `hiway verify` in CI.
func TestCheckScenarioSeedBatch(t *testing.T) {
	n := int64(25)
	if testing.Short() {
		n = 8
	}
	for seed := int64(1); seed <= n; seed++ {
		sc := Generate(seed)
		res := CheckScenario(sc, Options{})
		if !res.OK() {
			t.Errorf("seed %d (%s, %d tasks, chaos %q) failed:\n  %s",
				seed, sc.Shape, sc.TotalTasks(), sc.Chaos, strings.Join(res.Failures, "\n  "))
		}
	}
}

// TestIterativeScenarioSkipsStaticPolicies documents the §3.4 rule in the
// runner: an unfolding workflow is checked under dynamic policies only, and
// still completes its full task count.
func TestIterativeScenarioSkipsStaticPolicies(t *testing.T) {
	var sc *Scenario
	for seed := int64(1); ; seed++ {
		if sc = Generate(seed); sc.Iterative() {
			break
		}
	}
	res := CheckScenario(sc, Options{})
	if !res.OK() {
		t.Fatalf("iterative seed %d failed:\n  %s", sc.Seed, strings.Join(res.Failures, "\n  "))
	}
	for _, run := range res.Runs {
		if staticPolicies[run.Policy] {
			t.Fatalf("static policy %s ran an iterative scenario", run.Policy)
		}
		if run.Policy != "resume" && run.Policy != "memo-resume" && run.Policy != "service" && run.Executed != sc.TotalTasks() {
			t.Fatalf("policy %s executed %d tasks, want %d", run.Policy, run.Executed, sc.TotalTasks())
		}
	}
}

// skewTamper injects the deliberate off-by-one into container release that
// the acceptance criteria demand the auditor catches: every release credits
// one extra vcore, so free+in-use drifts above the node spec.
func skewTamper(env core.Env) { env.RM.SetReleaseSkewForTesting(1) }

// TestAuditorDetectsReleaseSkew is the acceptance test for the invariant
// auditor: a broken release accounting path must surface as a
// capacity-conservation violation under every policy.
func TestAuditorDetectsReleaseSkew(t *testing.T) {
	sc := Generate(1)
	res := CheckScenario(sc, Options{Tamper: skewTamper, SkipResume: true})
	if res.OK() {
		t.Fatalf("auditor missed the release off-by-one on seed %d", sc.Seed)
	}
	found := false
	for _, f := range res.Failures {
		if strings.Contains(f, InvCapacity) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("failures do not name %s:\n  %s", InvCapacity, strings.Join(res.Failures, "\n  "))
	}
}

// TestAuditorDetectsProvenanceOutOfOrder: an event stamped late and recorded
// under the run's workflow ID before it launches puts every event the run
// records behind it in time, which the provenance-order audit must name.
func TestAuditorDetectsProvenanceOutOfOrder(t *testing.T) {
	sc := Generate(1)
	late := func(env core.Env) {
		_ = env.Prov.Record(provenance.Event{Type: provenance.WorkflowStart,
			WorkflowID: fmt.Sprintf("verify-%d-fcfs", sc.Seed), Timestamp: 1e6})
	}
	res := CheckScenario(sc, Options{Tamper: late, SkipResume: true, Policies: []string{"fcfs"}})
	if got := strings.Join(res.Failures, "\n  "); !strings.Contains(got, "policy fcfs: t=0.000 "+InvProvOrder+": verify-1-fcfs-start at t=0.000 recorded after t=1000000.000") {
		t.Fatalf("failures do not name %s:\n  %s", InvProvOrder, got)
	}
}

// TestTamperedFailureBlockIsByteStable pins the failure block `hiway verify`
// prints to the scenario alone. Go re-randomizes map order on every range, so
// a report that ranges over a map reads differently from run to run; twenty
// in-process runs catch that. The scenario is kept small so the release-skew
// tamper leaves several nodes over capacity at quiescence while the
// violation list stays under its cap.
func TestTamperedFailureBlockIsByteStable(t *testing.T) {
	sc := &Scenario{Seed: 7, Shape: "fanout", Nodes: 4, Inputs: []InputSpec{{Path: "/data/in-0.dat", SizeMB: 32}}}
	for i, in := range []string{"/data/in-0.dat", "/wf/t000.dat", "/wf/t000.dat", "/wf/t000.dat"} {
		sc.Tasks = append(sc.Tasks, TaskSpec{Name: "alpha", Inputs: []string{in},
			Outputs: []string{fmt.Sprintf("/wf/t%03d.dat", i)}, OutSizeMB: 8, CPUSeconds: 30})
	}
	opts := Options{Tamper: skewTamper, SkipResume: true, Policies: []string{"fcfs"}}
	first := strings.Join(CheckScenario(sc, opts).Failures, "\n")
	if strings.Count(first, "ended with") < 2 {
		t.Fatalf("want several nodes over capacity at quiescence, got:\n%s", first)
	}
	for run := 1; run < 20; run++ {
		if got := strings.Join(CheckScenario(sc, opts).Failures, "\n"); got != first {
			t.Fatalf("run %d printed a different failure block:\n%s\nfirst run:\n%s", run, got, first)
		}
	}

	// The service tier's reports, over several tenants at once.
	for run := 0; run < 20; run++ {
		aud := NewTenantAuditor(nil)
		rec := newOrderRecorder()
		for i, tenant := range []string{"t-c", "t-a", "t-b"} {
			aud.OnContainerAllocated(1, &yarn.Container{ID: int64(i + 1), NodeID: "node-01", Tenant: tenant})
			rec.OnQueued(1, tenant, tenant+"-w000")
			rec.OnQueued(1, tenant, tenant+"-w001")
			rec.OnAdmitted(2, tenant, tenant+"-w001")
			rec.OnAdmitted(2, tenant, tenant+"-w000")
		}
		var tenants []string
		for _, v := range append(aud.FinalCheck(3), rec.check(3, 9)...) {
			tenants = append(tenants, strings.Fields(v.Detail)[1])
		}
		if got := strings.Join(tenants, " "); got != "t-a t-b t-c t-a t-b t-c" {
			t.Fatalf("run %d reported tenants in order %q, want each report sorted by tenant", run, got)
		}
	}
}

// TestShrinkMinimizesReleaseSkewReproducer drives the full failing-seed
// workflow: detect the injected bug, then shrink the scenario. The
// accounting bug fires on the very first release, so the minimized
// reproducer must be a single-task workflow with an empty chaos plan.
func TestShrinkMinimizesReleaseSkewReproducer(t *testing.T) {
	opts := Options{Tamper: skewTamper, SkipResume: true, Policies: []string{"fcfs"}}
	var sc *Scenario
	for seed := int64(1); ; seed++ {
		sc = Generate(seed)
		if sc.Iterative() {
			continue // keep the assertion on the prefix search simple
		}
		if len(CheckScenario(sc, opts).Failures) > 0 {
			break
		}
	}
	rep := Shrink(sc, opts)
	if len(rep.Failures) == 0 {
		t.Fatalf("shrink lost the failure (probes %d)", rep.Probes)
	}
	min := rep.Scenario
	if len(min.Tasks) != 1 {
		t.Errorf("minimized to %d tasks, want 1:\n%s", len(min.Tasks), min.Marshal())
	}
	if min.Chaos != "" {
		t.Errorf("minimized scenario kept chaos %q", min.Chaos)
	}
	if len(CheckScenario(min, opts).Failures) == 0 {
		t.Errorf("minimized reproducer does not fail on re-check")
	}
	// And the reproducer is self-contained: parse it back and re-fail.
	back, err := ParseScenario(min.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(CheckScenario(back, opts).Failures) == 0 {
		t.Errorf("re-parsed reproducer does not fail")
	}
}

// TestServiceScenariosGeneratedAndPass finds seeds that carry a service
// tier and checks the tenant-quota and admission-order invariants hold on
// them. A third of all seeds should carry one; 40 seeds make a missing
// generator branch effectively impossible to miss.
func TestServiceScenariosGeneratedAndPass(t *testing.T) {
	found := 0
	for seed := int64(1); seed <= 40 && found < 4; seed++ {
		sc := Generate(seed)
		if sc.Service == nil {
			continue
		}
		found++
		if len(sc.Service.Tenants) < 2 {
			t.Fatalf("seed %d: service spec has %d tenants, want >= 2", seed, len(sc.Service.Tenants))
		}
		run := runService(sc, nil)
		if run.Err != "" {
			t.Fatalf("seed %d service run errored: %s", seed, run.Err)
		}
		if len(run.Violations) > 0 {
			t.Fatalf("seed %d service run violated invariants: %v", seed, run.Violations)
		}
	}
	if found == 0 {
		t.Fatal("40 seeds never generated a service scenario")
	}
}

// TestTenantAuditorDetectsQuotaBreach feeds the auditor a synthetic
// allocation stream that exceeds the cap and checks the violation is
// attributed to the tenant-quota invariant at the breaching event.
func TestTenantAuditorDetectsQuotaBreach(t *testing.T) {
	aud := NewTenantAuditor(map[string]yarn.TenantPolicy{"acme": {Weight: 1, MaxContainers: 2}})
	c := func(id int64, tenant string, am bool) *yarn.Container {
		return &yarn.Container{ID: id, NodeID: "node-01", Tenant: tenant, AM: am}
	}
	aud.OnContainerAllocated(1, c(1, "acme", false))
	aud.OnContainerAllocated(2, c(2, "acme", true)) // AM: quota-exempt
	aud.OnContainerAllocated(3, c(3, "acme", false))
	if v := aud.Violations(); len(v) != 0 {
		t.Fatalf("violations at cap: %v", v)
	}
	aud.OnContainerAllocated(4, c(4, "acme", false)) // breach
	vs := aud.Violations()
	if len(vs) != 1 || vs[0].Invariant != InvTenantQuota || vs[0].TimeSec != 4 {
		t.Fatalf("breach not reported as %s at t=4: %v", InvTenantQuota, vs)
	}
}

// TestOrderRecorderDetectsReordering checks the admission-order audit: an
// intra-tenant swap and a concurrency-cap breach must both surface.
func TestOrderRecorderDetectsReordering(t *testing.T) {
	rec := newOrderRecorder()
	rec.OnQueued(1, "acme", "acme-w000")
	rec.OnQueued(2, "acme", "acme-w001")
	rec.OnAdmitted(3, "acme", "acme-w001") // out of order
	rec.OnAdmitted(4, "acme", "acme-w000")
	vs := rec.check(5, 1)
	if len(vs) != 2 {
		t.Fatalf("want order + cap violations, got %v", vs)
	}
	for _, v := range vs {
		if v.Invariant != InvAdmitOrder {
			t.Fatalf("violation %v not attributed to %s", v, InvAdmitOrder)
		}
	}
}

// TestShrinkDropsServiceTier checks the shrinker removes the service tier
// when the failure lives in the single-workflow matrix (the release-skew
// tamper fires there too), keeping reproducers minimal.
func TestShrinkDropsServiceTier(t *testing.T) {
	opts := Options{Tamper: skewTamper, SkipResume: true, Policies: []string{"fcfs"}}
	var sc *Scenario
	for seed := int64(1); ; seed++ {
		sc = Generate(seed)
		if sc.Service == nil || sc.Iterative() {
			continue
		}
		if len(CheckScenario(sc, opts).Failures) > 0 {
			break
		}
	}
	rep := Shrink(sc, opts)
	if len(rep.Failures) == 0 {
		t.Fatalf("shrink lost the failure")
	}
	if rep.Scenario.Service != nil {
		t.Fatalf("minimized scenario kept its service tier:\n%s", rep.Scenario.Marshal())
	}
}

// TestShrinkPassingScenarioIsIdentity pins the contract that Shrink never
// mutates a healthy scenario.
func TestShrinkPassingScenarioIsIdentity(t *testing.T) {
	sc := Generate(2)
	rep := Shrink(sc, Options{Policies: []string{"fcfs"}, SkipResume: true})
	if len(rep.Failures) != 0 {
		t.Fatalf("healthy scenario reported failures: %v", rep.Failures)
	}
	if !bytes.Equal(rep.Scenario.Marshal(), sc.Marshal()) {
		t.Fatalf("shrink mutated a passing scenario")
	}
}
