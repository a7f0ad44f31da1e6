package scheduler

import "testing"

func TestAdaptiveGreedyPrefersRelativelyFastNode(t *testing.T) {
	var fx fixture
	est := &fakeEstimator{runtimes: map[string]map[string]float64{
		// "heavy" is fast on n1 relative to its mean; "light" indifferent.
		"heavy": {"n1": 10, "n2": 200},
		"light": {"n1": 20, "n2": 20},
	}}
	s := NewAdaptiveGreedy(est)
	light := fx.mkTask("light", nil, "o1")
	heavy := fx.mkTask("heavy", nil, "o2")
	s.OnTaskReady(light)
	s.OnTaskReady(heavy)
	// A container on n1 should run heavy there (advantage 105−10=95 over
	// light's 0), even though light arrived first.
	if got := s.Select("n1"); got != heavy {
		t.Fatalf("n1 got %v, want heavy", got)
	}
	if got := s.Select("n2"); got != light {
		t.Fatalf("n2 got %v, want light", got)
	}
	if s.Queued() != 0 {
		t.Fatalf("queued = %d", s.Queued())
	}
}

func TestAdaptiveGreedyAvoidsKnownSlowAssignment(t *testing.T) {
	var fx fixture
	est := &fakeEstimator{runtimes: map[string]map[string]float64{
		"a": {"slow": 500, "fast": 10},
		"b": {"slow": 50, "fast": 40},
	}}
	s := NewAdaptiveGreedy(est)
	ta := fx.mkTask("a", nil, "oa")
	tb := fx.mkTask("b", nil, "ob")
	s.OnTaskReady(ta)
	s.OnTaskReady(tb)
	// On "slow": a's advantage = 255−500 = −245; b's = 45−50 = −5 ⇒ b.
	if got := s.Select("slow"); got != tb {
		t.Fatalf("slow node got %s, want b", got.Name)
	}
}

func TestAdaptiveGreedyExploresUnknownNodes(t *testing.T) {
	var fx fixture
	est := &fakeEstimator{runtimes: map[string]map[string]float64{
		"a": {"n1": 100}, // never seen on n2
	}}
	s := NewAdaptiveGreedy(est)
	ta := fx.mkTask("a", nil, "oa")
	tb := fx.mkTask("fresh", nil, "ob") // signature with no data at all
	s.OnTaskReady(ta)
	s.OnTaskReady(tb)
	// On unexplored n2, task a has advantage 100−0 = 100 (explore!),
	// fresh has 0 ⇒ a dispatches first.
	if got := s.Select("n2"); got != ta {
		t.Fatalf("n2 got %s, want a (exploration)", got.Name)
	}
}

func TestAdaptiveGreedyEmptyAndDynamics(t *testing.T) {
	var fx fixture
	s := NewAdaptiveGreedy(&fakeEstimator{})
	if s.Select("n") != nil {
		t.Fatal("empty queue must return nil")
	}
	if hint, strict := s.Placement(fx.mkTask("x", nil, "o")); hint != "" || strict {
		t.Fatal("adaptive-greedy is dynamic, no pinning")
	}
	if s.Name() != "adaptive-greedy" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestFactoryAdaptiveGreedy(t *testing.T) {
	if _, err := New(PolicyAdaptiveGreedy, Deps{}); err == nil {
		t.Fatal("adaptive without estimator must fail")
	}
	s, err := New(PolicyAdaptiveGreedy, Deps{Estimator: &fakeEstimator{}})
	if err != nil || s.Name() != "adaptive-greedy" {
		t.Fatalf("factory: %v %v", s, err)
	}
}

func TestHEFTEstimateModes(t *testing.T) {
	est := &fakeEstimator{runtimes: map[string]map[string]float64{
		"w": {"n1": 10, "n2": 1000},
	}}
	h := NewHEFT(est)
	if got := h.estimate("w", "n3"); got != 0 {
		t.Fatalf("zero-default estimate = %g", got)
	}
	if got := h.estimate("w", "n1"); got != 10 {
		t.Fatalf("observed estimate = %g, want 10", got)
	}
	if got := h.estimate("unknown", "n1"); got != 0 {
		t.Fatalf("unknown signature estimate = %g", got)
	}
}

func TestAdaptiveGreedyDeclinesKnownSlowNode(t *testing.T) {
	var fx fixture
	est := &fakeEstimator{runtimes: map[string]map[string]float64{
		"w": {"good": 10, "awful": 500}, // awful is 50x the good node
	}}
	s := NewAdaptiveGreedy(est)
	task := fx.mkTask("w", nil, "o")
	s.OnTaskReady(task)
	// mean = 255; est on awful = 500 > 3×255? No (765) — not declined.
	if got := s.Select("awful"); got != task {
		t.Fatalf("500 < 3×mean: should accept, got %v", got)
	}
	// Make the node bad enough to cross the 3× threshold.
	est.runtimes["w"]["awful"] = 5000 // mean 2505? no: (10+5000)/2 = 2505; 5000 < 3×2505
	est.runtimes["w"] = map[string]float64{"good": 10, "ok": 20, "awful": 5000}
	// mean = 1676.7; 5000 < 3×1676.7 = 5030 — still accepts. Use a wider pool.
	est.runtimes["w"] = map[string]float64{"a": 10, "b": 12, "c": 9, "awful": 500}
	// mean = 132.75; 500 > 398.25 ⇒ decline.
	s2 := NewAdaptiveGreedy(est)
	s2.OnTaskReady(task)
	if got := s2.Select("awful"); got != nil {
		t.Fatalf("should decline the known-slow node, got %v", got)
	}
	if s2.Queued() != 1 {
		t.Fatal("declined task must stay queued")
	}
	if got := s2.Select("a"); got != task {
		t.Fatalf("good node should get the task, got %v", got)
	}
}

func TestAdaptiveGreedyDeclineBudgetExhausts(t *testing.T) {
	var fx fixture
	est := &fakeEstimator{runtimes: map[string]map[string]float64{
		"w": {"a": 10, "b": 12, "c": 9, "awful": 500},
	}}
	s := NewAdaptiveGreedy(est)
	s.declineBudget = 2
	task := fx.mkTask("w", nil, "o")
	s.OnTaskReady(task)
	if s.Select("awful") != nil || s.Select("awful") != nil {
		t.Fatal("first two offers should be declined")
	}
	// Budget exhausted: progress is guaranteed even on the bad node.
	if got := s.Select("awful"); got != task {
		t.Fatalf("exhausted budget must accept, got %v", got)
	}
}

// fakePredictor reports a fixed memo-hit probability per signature.
type fakePredictor struct{ p map[string]float64 }

func (f *fakePredictor) HitProbability(sig string) float64 { return f.p[sig] }

func TestAdaptiveGreedyHitPredictorSuppressesDeclines(t *testing.T) {
	var fx fixture
	est := &fakeEstimator{runtimes: map[string]map[string]float64{
		"w": {"a": 10, "b": 12, "c": 9, "awful": 500},
	}}
	task := fx.mkTask("w", nil, "o")
	// Baseline: mean 132.75, 500 > 3×132.75 ⇒ the slow node is declined.
	s := NewAdaptiveGreedy(est)
	s.OnTaskReady(task)
	if s.Select("awful") != nil {
		t.Fatal("baseline: slow node should be declined")
	}
	// A likely memo hit raises the decline bar by 1/(1−p): at p=0.8 the
	// threshold becomes 5×398.25 ⇒ the same offer is accepted. Wired
	// through Deps to cover the PredictorAware plumbing in New.
	s2, err := New(PolicyAdaptiveGreedy, Deps{
		Estimator: est,
		Predictor: &fakePredictor{p: map[string]float64{"w": 0.8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s2.OnTaskReady(task)
	if got := s2.Select("awful"); got != task {
		t.Fatalf("high hit probability must suppress the decline, got %v", got)
	}
	// p=1 disables declining outright, however slow the node.
	s3 := NewAdaptiveGreedy(est)
	s3.SetHitPredictor(&fakePredictor{p: map[string]float64{"w": 1}})
	s3.OnTaskReady(task)
	if got := s3.Select("awful"); got != task {
		t.Fatalf("certain hit must never decline, got %v", got)
	}
	// p=0 (or an unknown signature) leaves behavior untouched.
	s4 := NewAdaptiveGreedy(est)
	s4.SetHitPredictor(&fakePredictor{p: map[string]float64{}})
	s4.OnTaskReady(task)
	if s4.Select("awful") != nil {
		t.Fatal("zero hit probability must keep the decline")
	}
}
