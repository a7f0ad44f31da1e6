package scheduler

import (
	"testing"

	"hiway/internal/wf"
)

func TestNodeHealthTrackerBlacklistAndProbation(t *testing.T) {
	now := 0.0
	h := NewNodeHealthTracker(func() float64 { return now })

	if !h.Healthy("n1") {
		t.Fatal("unknown node must be healthy")
	}
	h.ReportFailure("n1")
	h.ReportFailure("n1")
	if !h.Healthy("n1") {
		t.Fatal("two failures are below the threshold")
	}
	h.ReportFailure("n1")
	if h.Healthy("n1") {
		t.Fatal("third consecutive failure must blacklist")
	}
	if bl := h.Blacklisted(); len(bl) != 1 || bl[0] != "n1" {
		t.Fatalf("Blacklisted = %v", bl)
	}

	// Penalty window expires: node is re-admitted on probation.
	now = 61
	if !h.Healthy("n1") {
		t.Fatal("node must be re-admitted after the penalty window")
	}
	// One failure on probation re-blacklists immediately, doubled window.
	h.ReportFailure("n1")
	if h.Healthy("n1") {
		t.Fatal("probation failure must re-blacklist immediately")
	}
	now = 61 + 61 // one base window later: still inside the doubled window
	if h.Healthy("n1") {
		t.Fatal("doubled penalty must outlast the base window")
	}
	now = 61 + 121
	if !h.Healthy("n1") {
		t.Fatal("doubled window expired")
	}

	// Success on probation fully rehabilitates: three more failures needed.
	h.ReportSuccess("n1")
	h.ReportFailure("n1")
	h.ReportFailure("n1")
	if !h.Healthy("n1") {
		t.Fatal("success must reset the failure streak and penalty")
	}
}

func TestNodeHealthTrackerSuccessResetsStreak(t *testing.T) {
	now := 0.0
	h := NewNodeHealthTracker(func() float64 { return now })
	h.ReportFailure("n1")
	h.ReportFailure("n1")
	h.ReportSuccess("n1")
	h.ReportFailure("n1")
	h.ReportFailure("n1")
	if !h.Healthy("n1") {
		t.Fatal("streak interrupted by success must not blacklist")
	}
}

func TestSchedulersDeclineBlacklistedNodes(t *testing.T) {
	var fx fixture
	now := 0.0
	h := NewNodeHealthTracker(func() float64 { return now })
	blacklist(h, "bad")

	task := fx.mkTask("tool", nil, "o")

	for _, s := range []Scheduler{NewFCFS(), NewDataAware(&fakeLocality{}), NewAdaptiveGreedy(zeroEstimator{})} {
		ha, ok := s.(HealthAware)
		if !ok {
			t.Fatalf("%s does not implement HealthAware", s.Name())
		}
		ha.SetNodeHealth(h)
		s.OnTaskReady(task)
		if got := s.Select("bad"); got != nil {
			t.Fatalf("%s handed a task to a blacklisted node", s.Name())
		}
		if got := s.Select("good"); got != task {
			t.Fatalf("%s withheld a task from a healthy node", s.Name())
		}
	}
}

func TestStaticSelectDeclinesBlacklistedAndReassignMovesQueued(t *testing.T) {
	var fx fixture
	now := 0.0
	h := NewNodeHealthTracker(func() float64 { return now })

	a := fx.mkTask("a", nil, "a.out")
	b := fx.mkTask("b", []string{"a.out"}, "b.out")
	dag, err := wf.NewDAG([]*wf.Task{a, b}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	s := NewRoundRobin()
	if err := s.Plan(dag, []NodeInfo{{ID: "n1"}, {ID: "n2"}}); err != nil {
		t.Fatal(err)
	}
	s.SetNodeHealth(h)
	s.OnTaskReady(a) // planned on n1

	blacklist(h, "n1")
	if got := s.Select("n1"); got != nil {
		t.Fatal("static Select handed a task to a blacklisted node")
	}
	// Reassign moves the already-queued task to the new node's list.
	s.Reassign(a, "n2")
	if got := s.Select("n1"); got != nil {
		t.Fatal("task still queued under old node after Reassign")
	}
	if got := s.Select("n2"); got != a {
		t.Fatalf("Select(n2) = %v, want task a", got)
	}
	if s.Queued() != 0 {
		t.Fatalf("Queued = %d, want 0", s.Queued())
	}
}

// TestNodeHealthTrackerEdgeCases pins the tracker's constants and boundary
// behavior as a table: a node is blacklisted after 3 consecutive failures
// for 60 s, and each failure on re-admission doubles the window. Each case
// drives a fresh tracker through a scripted sequence of failures,
// successes, and clock jumps, then asserts the health verdict.
func TestNodeHealthTrackerEdgeCases(t *testing.T) {
	type step struct {
		at      float64 // clock value before the action
		fail    string  // node to fail, if non-empty
		succeed string  // node to rehabilitate, if non-empty
	}
	cases := []struct {
		name        string
		steps       []step
		at          float64 // clock value for the final assertions
		healthy     []string
		unhealthy   []string
		blacklisted []string // expected Blacklisted() at `at`
	}{
		{
			name:    "two consecutive failures do not blacklist",
			steps:   []step{{at: 0, fail: "n1"}, {at: 5, fail: "n1"}},
			at:      5,
			healthy: []string{"n1"},
		},
		{
			name:        "the third consecutive failure blacklists",
			steps:       []step{{at: 0, fail: "n1"}, {at: 5, fail: "n1"}, {at: 10, fail: "n1"}},
			at:          10,
			unhealthy:   []string{"n1"},
			blacklisted: []string{"n1"},
		},
		{
			name: "a re-admission failure doubles the window",
			// Blacklisted [0, 60); the failure at 60 blacklists [60, 180).
			steps: []step{
				{at: 0, fail: "n1"}, {at: 0, fail: "n1"}, {at: 0, fail: "n1"},
				{at: 60, fail: "n1"},
			},
			at:          179.999,
			unhealthy:   []string{"n1"},
			blacklisted: []string{"n1"},
		},
		{
			name: "the doubled window ends on time",
			steps: []step{
				{at: 0, fail: "n1"}, {at: 0, fail: "n1"}, {at: 0, fail: "n1"},
				{at: 60, fail: "n1"},
			},
			at:      180,
			healthy: []string{"n1"},
		},
		{
			name: "a second re-admission failure doubles it again",
			// [0, 60), then [60, 180), then [180, 420).
			steps: []step{
				{at: 0, fail: "n1"}, {at: 0, fail: "n1"}, {at: 0, fail: "n1"},
				{at: 60, fail: "n1"}, {at: 180, fail: "n1"},
			},
			at:          419.999,
			unhealthy:   []string{"n1"},
			blacklisted: []string{"n1"},
		},
		{
			name: "expiry at the exact deadline re-admits",
			// Blacklisted at t=10 for 60s: the window is [10, 70), so the
			// node is unhealthy at 69.999… and healthy again at exactly 70.
			steps:       []step{{at: 10, fail: "n1"}, {at: 10, fail: "n1"}, {at: 10, fail: "n1"}},
			at:          70,
			healthy:     []string{"n1"},
			blacklisted: nil,
		},
		{
			name:        "one tick before the deadline still blacklisted",
			steps:       []step{{at: 10, fail: "n1"}, {at: 10, fail: "n1"}, {at: 10, fail: "n1"}},
			at:          69.999,
			unhealthy:   []string{"n1"},
			blacklisted: []string{"n1"},
		},
		{
			name: "re-blacklist after full recovery uses the base penalty again",
			// Blacklist, wait out the window, succeed (full rehabilitation),
			// then three fresh failures: the streak threshold applies again
			// and the penalty is the base 60s, not the doubled probation one.
			steps: []step{
				{at: 0, fail: "n1"}, {at: 0, fail: "n1"}, {at: 0, fail: "n1"},
				{at: 60, succeed: "n1"},
				{at: 100, fail: "n1"}, {at: 100, fail: "n1"},
				// Two failures stay below the threshold after a reset…
				{at: 100, fail: "n1"},
				// …and the third blacklists until 160, not 100+120.
			},
			at:          160,
			healthy:     []string{"n1"},
			blacklisted: nil,
		},
		{
			name: "recovered node re-blacklists below doubled window",
			steps: []step{
				{at: 0, fail: "n1"}, {at: 0, fail: "n1"}, {at: 0, fail: "n1"},
				{at: 60, succeed: "n1"},
				{at: 100, fail: "n1"}, {at: 100, fail: "n1"}, {at: 100, fail: "n1"},
			},
			at:          159.999,
			unhealthy:   []string{"n1"},
			blacklisted: []string{"n1"},
		},
		{
			name: "all nodes blacklisted, earliest window re-admits first",
			// Both nodes go down; no healthy node exists until n1's window
			// expires — the cluster-wide fallback is waiting out the penalty,
			// not handing work to a blacklisted node.
			steps: []step{
				{at: 0, fail: "n1"}, {at: 0, fail: "n1"}, {at: 0, fail: "n1"},
				{at: 30, fail: "n2"}, {at: 30, fail: "n2"}, {at: 30, fail: "n2"},
			},
			at:          60,
			healthy:     []string{"n1"},
			unhealthy:   []string{"n2"},
			blacklisted: []string{"n2"},
		},
		{
			name: "all nodes blacklisted simultaneously",
			steps: []step{
				{at: 0, fail: "n1"}, {at: 0, fail: "n1"}, {at: 0, fail: "n1"},
				{at: 0, fail: "n2"}, {at: 0, fail: "n2"}, {at: 0, fail: "n2"},
			},
			at:          59,
			unhealthy:   []string{"n1", "n2"},
			blacklisted: []string{"n1", "n2"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now := 0.0
			h := NewNodeHealthTracker(func() float64 { return now })
			for _, s := range tc.steps {
				now = s.at
				if s.fail != "" {
					h.ReportFailure(s.fail)
				}
				if s.succeed != "" {
					h.ReportSuccess(s.succeed)
				}
			}
			now = tc.at
			for _, n := range tc.healthy {
				if !h.Healthy(n) {
					t.Errorf("at t=%v node %s should be healthy", tc.at, n)
				}
			}
			for _, n := range tc.unhealthy {
				if h.Healthy(n) {
					t.Errorf("at t=%v node %s should be blacklisted", tc.at, n)
				}
			}
			got := h.Blacklisted()
			if len(got) != len(tc.blacklisted) {
				t.Fatalf("Blacklisted() = %v, want %v", got, tc.blacklisted)
			}
			for i := range got {
				if got[i] != tc.blacklisted[i] {
					t.Fatalf("Blacklisted() = %v, want %v", got, tc.blacklisted)
				}
			}
		})
	}
}

// TestAllNodesBlacklistedSchedulerWithholdsUntilExpiry pins the cluster-wide
// fallback at the scheduler layer: with every node blacklisted the policy
// declines all containers (the AM keeps re-requesting), and the first window
// to expire starts receiving work again — no task is ever handed to a
// blacklisted node, and no task is lost while waiting.
func TestAllNodesBlacklistedSchedulerWithholdsUntilExpiry(t *testing.T) {
	var fx fixture
	now := 0.0
	h := NewNodeHealthTracker(func() float64 { return now })
	blacklist(h, "n1")
	blacklist(h, "n2")

	s := NewFCFS()
	s.SetNodeHealth(h)
	task := fx.mkTask("tool", nil, "o")
	s.OnTaskReady(task)

	for _, n := range []string{"n1", "n2"} {
		if got := s.Select(n); got != nil {
			t.Fatalf("Select(%s) handed out a task with every node blacklisted", n)
		}
	}
	if s.Queued() != 1 {
		t.Fatalf("Queued = %d after declines, want 1 (task must not be lost)", s.Queued())
	}
	now = 60 // n1 and n2 expire together; either may serve now
	if got := s.Select("n1"); got != task {
		t.Fatalf("Select(n1) = %v after expiry, want the queued task", got)
	}
}

// blacklist reports the run of consecutive failures that blacklists node.
func blacklist(h *NodeHealthTracker, node string) {
	for i := 0; i < healthThreshold; i++ {
		h.ReportFailure(node)
	}
}

type zeroEstimator struct{}

func (zeroEstimator) LastRuntime(sig, node string) (float64, bool) { return 0, false }
func (zeroEstimator) MeanRuntime(sig string) (float64, bool)       { return 0, false }
