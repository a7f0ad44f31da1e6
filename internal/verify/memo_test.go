package verify

import (
	"strings"
	"testing"

	"hiway/internal/scheduler"
)

// TestMemoSeedBatch is the memo-correctness differential property: for a
// batch of generated scenarios forced into the memoization family, the
// cold run must match the memo-off baseline exactly, the warm run must
// splice every task without allocating a worker container, and the
// kill/resume run must compose recovery with splicing — all under the full
// invariant auditor.
func TestMemoSeedBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("memo batch triples the execution count per seed")
	}
	for seed := int64(1); seed <= 12; seed++ {
		sc := Generate(seed)
		sc.Memo = true
		res := CheckScenario(sc, Options{})
		if !res.OK() {
			t.Fatalf("seed %d (%s): %s\n%s", seed, sc.Shape, strings.Join(res.Failures, "\n"), sc.Marshal())
		}
		var cold, warm, resume *PolicyRun
		for i := range res.Runs {
			switch res.Runs[i].Policy {
			case "memo-cold":
				cold = &res.Runs[i]
			case "memo-warm":
				warm = &res.Runs[i]
			case "memo-resume":
				resume = &res.Runs[i]
			}
		}
		if cold == nil || warm == nil || resume == nil {
			t.Fatalf("seed %d: memo family incomplete (cold=%v warm=%v resume=%v)",
				seed, cold != nil, warm != nil, resume != nil)
		}
		if cold.Memoized != 0 {
			t.Fatalf("seed %d: cold run spliced %d tasks", seed, cold.Memoized)
		}
		if warm.Memoized != sc.TotalTasks() {
			t.Fatalf("seed %d: warm run spliced %d of %d tasks", seed, warm.Memoized, sc.TotalTasks())
		}
		if warm.Containers != 0 {
			t.Fatalf("seed %d: warm run allocated %d containers", seed, warm.Containers)
		}
	}
}

// TestGenMemoFrequency pins the family's share of generated seeds near the
// intended quarter.
func TestGenMemoFrequency(t *testing.T) {
	n := 0
	for seed := int64(1); seed <= 200; seed++ {
		if Generate(seed).Memo {
			n++
		}
	}
	if n < 30 || n > 70 {
		t.Fatalf("memo family hit %d/200 seeds; want roughly a quarter", n)
	}
}

// TestMemoFamilyDetectsBaselineDivergence feeds runMemoFamily a doctored
// baseline — an output the memoized runs cannot reproduce — and requires
// the comparator to flag every family member, so the equality checks
// cannot silently pass.
func TestMemoFamilyDetectsBaselineDivergence(t *testing.T) {
	sc := Generate(2)
	base := sc.execute(runSpec{name: scheduler.PolicyFCFS, driver: sc.Driver, policy: scheduler.PolicyFCFS}, nil)
	if !base.Succeeded {
		t.Fatalf("baseline failed: %s", base.Err)
	}
	doctored := base
	doctored.Outputs = append([]string{"/wf/never-produced.dat"}, base.Outputs...)
	_, fails := runMemoFamily(sc, &doctored, Options{})
	if len(fails) < 3 {
		t.Fatalf("divergent baseline surfaced %d failures, want one per family run: %v", len(fails), fails)
	}
	for _, f := range fails {
		if !strings.Contains(f, "outputs") {
			t.Fatalf("unexpected failure kind: %s", f)
		}
	}
}

// TestMemoFamilySurfacesTamperedRuns routes the release-skew tamper through
// the family: every memo run carries the full auditor, so an accounting bug
// inside a memoized execution must surface as family failures, not just in
// the policy matrix.
func TestMemoFamilySurfacesTamperedRuns(t *testing.T) {
	sc := Generate(2)
	base := sc.execute(runSpec{name: scheduler.PolicyFCFS, driver: sc.Driver, policy: scheduler.PolicyFCFS}, nil)
	if !base.Succeeded {
		t.Fatalf("baseline failed: %s", base.Err)
	}
	_, fails := runMemoFamily(sc, &base, Options{Tamper: skewTamper})
	if len(fails) == 0 {
		t.Fatal("tampered memo runs produced no failures")
	}
}

// TestShrinkDropsMemo: when the failure lives in the spec-driver matrix,
// the shrunk reproducer sheds the memoization family first.
func TestShrinkDropsMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking runs many full checks")
	}
	var sc *Scenario
	for seed := int64(1); seed <= 80; seed++ {
		c := Generate(seed)
		if c.Memo && c.Service == nil && c.Elastic == nil && !c.Portability {
			sc = c
			break
		}
	}
	if sc == nil {
		t.Fatal("no plain memo seed in range")
	}
	opts := Options{Policies: []string{scheduler.PolicyFCFS}, Tamper: skewTamper}
	rep := Shrink(sc, opts)
	if len(rep.Failures) == 0 {
		t.Fatal("tampered scenario did not fail")
	}
	if rep.Scenario.Memo {
		t.Fatal("shrink kept the memo family for a spec-side failure")
	}
}
