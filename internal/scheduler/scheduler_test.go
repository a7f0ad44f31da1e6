package scheduler

import (
	"fmt"
	"sort"
	"testing"

	"hiway/internal/wf"
)

// fixture numbers one test's tasks 1, 2, … in the order they are made, as
// a driver's wf.IDSeq does: a run's task IDs are 1…n.
type fixture struct{ ids wf.IDSeq }

func (f *fixture) mkTask(name string, inputs []string, outputs ...string) *wf.Task {
	fis := make([]wf.FileInfo, len(outputs))
	for i, o := range outputs {
		fis[i] = wf.FileInfo{Path: o, SizeMB: 1}
	}
	return &wf.Task{ID: f.ids.Next(), Name: name, Inputs: inputs,
		OutputParams: []string{"out"}, Declared: map[string][]wf.FileInfo{"out": fis}, Threads: 1}
}

// fakeLocality maps "taskInput→node" fractions. It is a CandidateOracle, as
// hdfs.FS is: a test that rewrites frac moves epoch along with it.
type fakeLocality struct {
	frac  map[string]map[string]float64 // input path → node → fraction
	epoch uint64
}

func (f *fakeLocality) CandidateNodes(paths []string) []string {
	seen := map[string]bool{}
	for _, p := range paths {
		for n, frac := range f.frac[p] {
			if frac > 0 {
				seen[n] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (f *fakeLocality) LocalityEpoch() uint64 { return f.epoch }

// plainLocality answers fractions but cannot list candidate nodes.
type plainLocality struct{}

func (plainLocality) LocalFraction([]string, string) float64 { return 0 }

func (f *fakeLocality) LocalFraction(paths []string, node string) float64 {
	if len(paths) == 0 {
		return 0
	}
	var sum float64
	for _, p := range paths {
		sum += f.frac[p][node]
	}
	return sum / float64(len(paths))
}

// fakeEstimator returns runtimes from a fixed table.
type fakeEstimator struct {
	runtimes map[string]map[string]float64 // signature → node → seconds
}

func (f *fakeEstimator) LastRuntime(sig, node string) (float64, bool) {
	d, ok := f.runtimes[sig][node]
	return d, ok
}

func (f *fakeEstimator) MeanRuntime(sig string) (float64, bool) {
	byNode, ok := f.runtimes[sig]
	if !ok || len(byNode) == 0 {
		return 0, false
	}
	var sum float64
	for _, d := range byNode {
		sum += d
	}
	return sum / float64(len(byNode)), true
}

func nodes(ids ...string) []NodeInfo {
	out := make([]NodeInfo, len(ids))
	for i, id := range ids {
		out[i] = NodeInfo{ID: id}
	}
	return out
}

func TestNewFactory(t *testing.T) {
	if s, err := New("", Deps{}); err != nil || s.Name() != PolicyFCFS {
		t.Fatalf("default policy: %v %v", s, err)
	}
	if s, err := New("greedy", Deps{}); err != nil || s.Name() != PolicyFCFS {
		t.Fatalf("greedy alias: %v %v", s, err)
	}
	if _, err := New(PolicyDataAware, Deps{}); err == nil {
		t.Fatal("data-aware without oracle must fail")
	}
	if _, err := New(PolicyDataAware, Deps{Locality: plainLocality{}}); err == nil {
		t.Fatal("data-aware with an oracle that cannot list candidate nodes must fail")
	}
	if _, err := New(PolicyHEFT, Deps{}); err == nil {
		t.Fatal("HEFT without estimator must fail")
	}
	if _, err := New("mystery", Deps{}); err == nil {
		t.Fatal("unknown policy must fail")
	}
	if s, err := New(PolicyRoundRobin, Deps{}); err != nil || s.Name() != PolicyRoundRobin {
		t.Fatalf("roundrobin: %v %v", s, err)
	}
	if s, err := New(PolicyDataAware, Deps{Locality: &fakeLocality{}}); err != nil || s.Name() != PolicyDataAware {
		t.Fatalf("dataaware: %v %v", s, err)
	}
	if s, err := New(PolicyHEFT, Deps{Estimator: &fakeEstimator{}}); err != nil || s.Name() != PolicyHEFT {
		t.Fatalf("heft: %v %v", s, err)
	}
}

func TestFCFSOrder(t *testing.T) {
	var fx fixture
	s := NewFCFS()
	a, b := fx.mkTask("a", nil, "x"), fx.mkTask("b", nil, "y")
	s.OnTaskReady(a)
	s.OnTaskReady(b)
	if s.Queued() != 2 {
		t.Fatalf("queued = %d", s.Queued())
	}
	if hint, strict := s.Placement(a); hint != "" || strict {
		t.Fatal("FCFS must not pin")
	}
	if got := s.Select("anynode"); got != a {
		t.Fatalf("first = %v", got)
	}
	if got := s.Select("anynode"); got != b {
		t.Fatalf("second = %v", got)
	}
	if got := s.Select("anynode"); got != nil {
		t.Fatalf("empty = %v", got)
	}
}

func TestDataAwarePicksMostLocalTask(t *testing.T) {
	var fx fixture
	loc := &fakeLocality{frac: map[string]map[string]float64{
		"f1": {"node-00": 1.0, "node-01": 0.0},
		"f2": {"node-00": 0.0, "node-01": 1.0},
	}}
	s := NewDataAware(loc)
	t1 := fx.mkTask("t1", []string{"f1"}, "o1")
	t2 := fx.mkTask("t2", []string{"f2"}, "o2")
	s.OnTaskReady(t1)
	s.OnTaskReady(t2)
	// A container on node-01 should run t2 (its data is local there) even
	// though t1 arrived first.
	if got := s.Select("node-01"); got != t2 {
		t.Fatalf("node-01 got %v, want t2", got)
	}
	if got := s.Select("node-00"); got != t1 {
		t.Fatalf("node-00 got %v, want t1", got)
	}
}

func TestDataAwareTieFallsBackToFIFO(t *testing.T) {
	var fx fixture
	loc := &fakeLocality{frac: map[string]map[string]float64{}}
	s := NewDataAware(loc)
	t1 := fx.mkTask("t1", []string{"f1"}, "o1")
	t2 := fx.mkTask("t2", []string{"f2"}, "o2")
	s.OnTaskReady(t1)
	s.OnTaskReady(t2)
	if got := s.Select("n"); got != t1 {
		t.Fatalf("tie should pick FIFO head, got %v", got)
	}
}

// A task queued again while still queued keeps one live entry, at its new
// arrival position; an entry a bucket served is not served again by the
// arrival-order fallback.
func TestDataAwareRequeueSupersedes(t *testing.T) {
	var fx fixture
	loc := &fakeLocality{frac: map[string]map[string]float64{"f1": {"node-00": 1.0}}}
	s := NewDataAware(loc)
	t1 := fx.mkTask("t1", []string{"f1"}, "o1")
	t2 := fx.mkTask("t2", []string{"f2"}, "o2")
	t3 := fx.mkTask("t3", []string{"f3"}, "o3")
	s.OnTaskReady(t2)
	s.OnTaskReady(t3)
	s.OnTaskReady(t2) // t2 now arrives after t3
	if s.Queued() != 2 {
		t.Fatalf("Queued = %d after a re-queue, want 2", s.Queued())
	}
	if got := s.Select("node-01"); got != t3 {
		t.Fatalf("node-01 got %v, want t3: t2's first entry was superseded", got)
	}
	s.OnTaskReady(t1)
	if got := s.Select("node-00"); got != t1 {
		t.Fatalf("node-00 got %v, want t1: its input is local there", got)
	}
	if got := s.Select("node-01"); got != t2 {
		t.Fatalf("node-01 got %v, want t2", got)
	}
	if got := s.Select("node-01"); got != nil || s.Queued() != 0 {
		t.Fatalf("drained scheduler handed out %v with %d queued", got, s.Queued())
	}
}

// Locality changes under queued tasks (a node dies, a file is re-replicated):
// the oracle's epoch moves, the buckets are re-scored, and the choice follows
// the new locality instead of the one the tasks were queued under.
func TestDataAwareRescoresWhenTheEpochMoves(t *testing.T) {
	var fx fixture
	loc := &fakeLocality{frac: map[string]map[string]float64{
		"f1": {"node-00": 1.0},
		"f2": {"node-01": 1.0},
	}}
	s := NewDataAware(loc)
	t1 := fx.mkTask("t1", []string{"f1"}, "o1")
	t2 := fx.mkTask("t2", []string{"f2"}, "o2")
	t3 := fx.mkTask("t3", []string{"f3"}, "o3")
	for _, task := range []*wf.Task{t1, t2, t3} {
		s.OnTaskReady(task)
	}
	// The two files trade places and f3 gains a replica beside f1.
	loc.frac = map[string]map[string]float64{
		"f1": {"node-01": 1.0},
		"f2": {"node-00": 1.0},
		"f3": {"node-01": 0.5},
	}
	loc.epoch++
	if got := s.Select("node-00"); got != t2 {
		t.Fatalf("node-00 got %v, want t2: its file moved there", got)
	}
	if got := s.Select("node-01"); got != t1 {
		t.Fatalf("node-01 got %v, want t1: fully local beats t3's half", got)
	}
	if got := s.Select("node-01"); got != t3 {
		t.Fatalf("node-01 got %v, want t3", got)
	}
	if got := s.Select("node-01"); got != nil || s.Queued() != 0 {
		t.Fatalf("drained scheduler handed out %v with %d queued", got, s.Queued())
	}
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	var fx fixture
	var tasks []*wf.Task
	for i := 0; i < 9; i++ {
		tasks = append(tasks, fx.mkTask(fmt.Sprintf("t%d", i), nil, fmt.Sprintf("o%d", i)))
	}
	dag, err := wf.NewDAG(tasks, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewRoundRobin()
	if err := s.Plan(dag, nodes("n0", "n1", "n2")); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, task := range tasks {
		node, strict := s.Placement(task)
		if !strict || node == "" {
			t.Fatalf("round-robin must pin strictly: %q %v", node, strict)
		}
		counts[node]++
	}
	for n, c := range counts {
		if c != 3 {
			t.Fatalf("node %s got %d tasks, want 3 (counts=%v)", n, c, counts)
		}
	}
	// Select only serves tasks pinned to the node.
	s.OnTaskReady(tasks[0])
	pinned, _ := s.Placement(tasks[0])
	other := "n0"
	if pinned == "n0" {
		other = "n1"
	}
	if got := s.Select(other); got != nil {
		t.Fatalf("select on wrong node returned %v", got)
	}
	if got := s.Select(pinned); got != tasks[0] {
		t.Fatalf("select on pinned node returned %v", got)
	}
}

func TestRoundRobinPlanErrors(t *testing.T) {
	var fx fixture
	dag, _ := wf.NewDAG([]*wf.Task{fx.mkTask("a", nil, "o")}, nil, nil)
	s := NewRoundRobin()
	if err := s.Plan(dag, nil); err == nil {
		t.Fatal("plan with no nodes must fail")
	}
	if err := s.Plan(dag, nodes("n0")); err != nil {
		t.Fatal(err)
	}
	if err := s.Plan(dag, nodes("n0")); err == nil {
		t.Fatal("double plan must fail")
	}
}

// chainDAG builds a: t0 → t1 → t2 pipeline plus a parallel branch.
func heftDAG(t *testing.T) (*wf.DAG, []*wf.Task) {
	t.Helper()
	var fx fixture
	t0 := fx.mkTask("prep", nil, "d0")
	t1 := fx.mkTask("heavy", []string{"d0"}, "d1")
	t2 := fx.mkTask("light", []string{"d0"}, "d2")
	t3 := fx.mkTask("final", []string{"d1", "d2"}, "d3")
	dag, err := wf.NewDAG([]*wf.Task{t0, t1, t2, t3}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return dag, []*wf.Task{t0, t1, t2, t3}
}

func TestHEFTPrefersFastNodes(t *testing.T) {
	// node-fast runs everything in 10s, node-slow in 100s.
	est := &fakeEstimator{runtimes: map[string]map[string]float64{
		"prep":  {"fast": 10, "slow": 100},
		"heavy": {"fast": 10, "slow": 100},
		"light": {"fast": 10, "slow": 100},
		"final": {"fast": 10, "slow": 100},
	}}
	dag, tasks := heftDAG(t)
	s := NewHEFT(est)
	if err := s.Plan(dag, nodes("slow", "fast")); err != nil {
		t.Fatal(err)
	}
	// The critical chain prep→heavy→final must be on the fast node.
	for _, task := range []*wf.Task{tasks[0], tasks[3]} {
		if node, _ := s.Placement(task); node != "fast" {
			t.Fatalf("task %s placed on %s, want fast", task.Name, node)
		}
	}
	// "light" can run on slow in parallel (10s ready + 100s = 110 vs
	// inserting serially on fast); either way the plan must be strict.
	if _, strict := s.Placement(tasks[2]); !strict {
		t.Fatal("HEFT placement must be strict")
	}
}

func TestHEFTCriticalTaskFirst(t *testing.T) {
	// heavy has a long downstream chain; HEFT must dispatch it before
	// light when both are queued on the same node.
	est := &fakeEstimator{runtimes: map[string]map[string]float64{
		"prep":  {"n0": 10},
		"heavy": {"n0": 100},
		"light": {"n0": 1},
		"final": {"n0": 10},
	}}
	dag, tasks := heftDAG(t)
	s := NewHEFT(est)
	if err := s.Plan(dag, nodes("n0")); err != nil {
		t.Fatal(err)
	}
	s.OnTaskReady(tasks[2]) // light arrives first
	s.OnTaskReady(tasks[1]) // heavy second
	if got := s.Select("n0"); got != tasks[1] {
		t.Fatalf("higher-rank task must dispatch first, got %s", got.Name)
	}
}

func TestHEFTZeroEstimatesSpreadForExploration(t *testing.T) {
	var fx fixture
	// No provenance at all: everything estimates zero; ties must spread
	// tasks across nodes rather than piling onto one.
	est := &fakeEstimator{runtimes: map[string]map[string]float64{}}
	var tasks []*wf.Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, fx.mkTask(fmt.Sprintf("t%d", i), nil, fmt.Sprintf("o%d", i)))
	}
	dag, _ := wf.NewDAG(tasks, nil, nil)
	s := NewHEFT(est)
	if err := s.Plan(dag, nodes("n0", "n1", "n2", "n3")); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, task := range tasks {
		node, _ := s.Placement(task)
		counts[node]++
	}
	for n, c := range counts {
		if c != 2 {
			t.Fatalf("zero-estimate plan should spread 8 tasks over 4 nodes evenly, %s got %d (%v)", n, c, counts)
		}
	}
}

func TestHEFTPartialKnowledgeAvoidsKnownSlowNode(t *testing.T) {
	var fx fixture
	// Node n1 is known to be very slow for "work"; n0 known fast; n2
	// unobserved (estimate 0 → attractive, exploration).
	est := &fakeEstimator{runtimes: map[string]map[string]float64{
		"work": {"n0": 10, "n1": 1000},
	}}
	var tasks []*wf.Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, fx.mkTask("work", nil, fmt.Sprintf("o%d", i)))
	}
	dag, _ := wf.NewDAG(tasks, nil, nil)
	s := NewHEFT(est)
	if err := s.Plan(dag, nodes("n0", "n1", "n2")); err != nil {
		t.Fatal(err)
	}
	explored := false
	for _, task := range tasks {
		node, _ := s.Placement(task)
		if node == "n1" {
			t.Fatalf("task placed on known-slow node n1")
		}
		explored = explored || node == "n2"
	}
	if !explored {
		t.Fatal("zero-default HEFT should try the unobserved node n2")
	}
}

func TestHEFTInsertionFillsGaps(t *testing.T) {
	// earliestSlot must reuse a gap before an existing reservation.
	busy := []slot{{10, 20}}
	if got := earliestSlot(busy, 0, 5); got != 0 {
		t.Fatalf("gap start = %g, want 0", got)
	}
	if got := earliestSlot(busy, 0, 15); got != 20 {
		t.Fatalf("no-fit start = %g, want 20", got)
	}
	if got := earliestSlot(busy, 12, 3); got != 20 {
		t.Fatalf("overlap start = %g, want 20", got)
	}
	b2 := insertSlot(busy, slot{0, 5})
	if b2[0].start != 0 || b2[1].start != 10 {
		t.Fatalf("insertSlot order: %v", b2)
	}
}
