package verify

import (
	"slices"
	"strings"
	"testing"

	"hiway/internal/yarn"
)

// TestElasticScenariosGeneratedAndPass finds seeds that carry an elastic
// membership plan and checks the full differential matrix — including the
// membership-safety and cost-conservation invariants — holds on them. A
// quarter of all seeds should carry a plan; at least one found plan must be
// disruptive (drain or spot reclaim) so the preemption path is exercised.
func TestElasticScenariosGeneratedAndPass(t *testing.T) {
	found, removing := 0, 0
	for seed := int64(1); seed <= 80 && found < 5; seed++ {
		sc := Generate(seed)
		if sc.Elastic == nil {
			continue
		}
		found++
		if disruptive(sc.Elastic) {
			removing++
		}
		if len(sc.Elastic.Events) == 0 {
			t.Fatalf("seed %d: elastic plan with no events", seed)
		}
		for _, ev := range sc.Elastic.Events {
			if ev.Node == "node-00" {
				t.Fatalf("seed %d: elastic plan touches the AM node:\n%s", seed, sc.Marshal())
			}
		}
		res := CheckScenario(sc, Options{})
		if !res.OK() {
			t.Errorf("elastic seed %d (%s, chaos %q) failed:\n  %s",
				seed, sc.Shape, sc.Chaos, strings.Join(res.Failures, "\n  "))
		}
	}
	if found == 0 {
		t.Fatal("80 seeds never generated an elastic scenario")
	}
	if removing == 0 {
		t.Error("no found elastic plan was disruptive (drain/spot never generated)")
	}
}

// disruptive reports whether an elastic plan removes capacity mid-run (a
// drain or a spot reclaim). Safe on a nil plan.
func disruptive(e *ElasticSpec) bool {
	return e != nil && slices.ContainsFunc(e.Events, func(ev ElasticEvent) bool { return ev.Kind == "drain" || ev.Kind == "spot" })
}

// TestStaticPoliciesRunUnderMembershipChange pins the runner rule: static
// plans are audited under membership change like every other policy. The
// first non-iterative seed whose elastic plan drains or reclaims a node,
// and seed 45, whose chaos plan kills node-01 at 65 s, must run both static
// policies and pass. Seed 45 is the gate's own case of a strict request
// made after its node died: a task planned on node-01 becomes ready only
// after the kill.
func TestStaticPoliciesRunUnderMembershipChange(t *testing.T) {
	var drain *Scenario
	for seed := int64(1); drain == nil; seed++ {
		if sc := Generate(seed); disruptive(sc.Elastic) && !sc.Iterative() {
			drain = sc
		}
	}
	for _, sc := range []*Scenario{drain, Generate(45)} {
		if sc.Iterative() || !disruptive(sc.Elastic) && !sc.KillsNode() {
			t.Fatalf("seed %d changes no membership or is iterative:\n%s", sc.Seed, sc.Marshal())
		}
		res := CheckScenario(sc, Options{})
		if !res.OK() {
			t.Fatalf("seed %d failed:\n  %s", sc.Seed, strings.Join(res.Failures, "\n  "))
		}
		ran := map[string]bool{}
		for _, run := range res.Runs {
			ran[run.Policy] = true
		}
		for p := range staticPolicies {
			if !ran[p] {
				t.Fatalf("seed %d: static policy %s did not run", sc.Seed, p)
			}
		}
	}
}

// TestAuditorDetectsAllocationOnDrainingNode feeds the auditor a synthetic
// stream in which a container lands on a node that already announced its
// drain — the membership-safety invariant must flag the exact event.
func TestAuditorDetectsAllocationOnDrainingNode(t *testing.T) {
	sc := Generate(1)
	_, env, err := sc.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	aud := NewAuditor(env)
	node := env.Cluster.Nodes()[1].ID
	aud.OnNodeDraining(1, node)
	aud.OnContainerAllocated(2, &yarn.Container{ID: 7, NodeID: node,
		Resource: yarn.Resource{VCores: 1, MemMB: 512}})
	var hit bool
	for _, v := range aud.Violations() {
		if v.Invariant == InvMembership && v.TimeSec == 2 {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("draining-node allocation not reported as %s: %v", InvMembership, aud.Violations())
	}

	// And on a removed node likewise.
	aud2 := NewAuditor(env)
	aud2.OnNodeJoined(1, "extra-00", 4, 4096)
	aud2.OnNodeRemoved(2, "extra-00")
	aud2.OnContainerAllocated(3, &yarn.Container{ID: 8, NodeID: "extra-00",
		Resource: yarn.Resource{VCores: 1, MemMB: 512}})
	hit = false
	for _, v := range aud2.Violations() {
		if v.Invariant == InvMembership && v.TimeSec == 3 {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("removed-node allocation not reported as %s: %v", InvMembership, aud2.Violations())
	}
}

// TestCostViolationsFlagsImbalance pins the conservation check itself: a
// tenant account that does not sum to the busy integral must be flagged for
// the right class, and a balanced report must pass.
func TestCostViolationsFlagsImbalance(t *testing.T) {
	balanced := yarn.CostReport{
		OnDemandBusySec: 100, SpotBusySec: 40,
		Tenants: map[string]yarn.TenantCost{
			"a": {OnDemandCoreSec: 60, SpotCoreSec: 40},
			"b": {OnDemandCoreSec: 40},
		},
	}
	if vs := costViolations(balanced, 10); len(vs) != 0 {
		t.Fatalf("balanced report flagged: %v", vs)
	}
	skewed := balanced
	skewed.Tenants = map[string]yarn.TenantCost{
		"a": {OnDemandCoreSec: 60, SpotCoreSec: 40},
		"b": {OnDemandCoreSec: 39}, // one core-second vanished
	}
	vs := costViolations(skewed, 10)
	if len(vs) != 1 || vs[0].Invariant != InvCost || !strings.Contains(vs[0].Detail, "on-demand") {
		t.Fatalf("imbalance not reported as %s on-demand: %v", InvCost, vs)
	}
}

// TestShrinkDropsElasticPlan checks the shrinker removes the membership plan
// when the failure lives elsewhere (the release-skew tamper fires on any
// release), keeping reproducers minimal.
func TestShrinkDropsElasticPlan(t *testing.T) {
	opts := Options{Tamper: skewTamper, SkipResume: true, Policies: []string{"fcfs"}}
	var sc *Scenario
	for seed := int64(1); ; seed++ {
		sc = Generate(seed)
		if sc.Elastic == nil || sc.Iterative() {
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
	if rep.Scenario.Elastic != nil {
		t.Fatalf("minimized scenario kept its elastic plan:\n%s", rep.Scenario.Marshal())
	}
}
