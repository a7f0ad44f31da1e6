package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"hiway/internal/obs"
	"hiway/internal/wf"
)

// staticBase holds the machinery shared by static policies: a fixed
// task→node assignment computed by Plan, per-node FIFO queues of ready
// tasks, and strict container placement.
type staticBase struct {
	healthGate
	obsSink
	policy  string
	plan    []pin // plan[id-1] is the task's pin
	ready   map[string][]*wf.Task
	queued  int
	planned bool
}

// pin is one task's place in a static plan.
type pin struct {
	node  string
	order int // dispatch priority (lower first)
}

func (s *staticBase) Name() string { return s.policy }

// pinOf returns t's pin. The AM plans the whole graph before the first
// task is ready, and a DAG's task IDs are 1…n, so every task has one.
func (s *staticBase) pinOf(t *wf.Task) pin { return s.plan[t.ID-1] }

// OnTaskReady implements Scheduler.
func (s *staticBase) OnTaskReady(t *wf.Task) {
	node := s.pinOf(t).node
	s.ready[node] = s.insertByOrder(s.ready[node], t)
	s.queued++
}

// insertByOrder places t into q keeping plan priority order (binary search
// plus shift, instead of re-sorting the queue on every insertion). Equal
// priorities keep insertion order, like the stable sort they replace.
func (s *staticBase) insertByOrder(q []*wf.Task, t *wf.Task) []*wf.Task {
	pos := s.pinOf(t).order
	i := sort.Search(len(q), func(k int) bool { return s.pinOf(q[k]).order > pos })
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = t
	return q
}

// Placement implements Scheduler: static policies enforce their plan.
func (s *staticBase) Placement(t *wf.Task) (string, bool) { return s.pinOf(t).node, true }

// Select implements Scheduler: only tasks planned for this node qualify.
func (s *staticBase) Select(node string) *wf.Task {
	q := s.ready[node]
	if len(q) == 0 {
		return nil
	}
	if !s.nodeOK(node) {
		s.noteDecline(s.policy, node, obs.OutcomeBlacklist, s.queued, 0)
		return nil
	}
	queuedBefore := s.queued
	t := q[0]
	copy(q, q[1:])
	q[len(q)-1] = nil
	s.ready[node] = q[:len(q)-1]
	s.queued--
	s.noteAssign(s.policy, node, t, queuedBefore, 1, -1)
	return t
}

// Queued implements Scheduler.
func (s *staticBase) Queued() int { return s.queued }

// Reassign implements Reassigner: it re-pins one task and keeps the rest of
// the plan. The AM calls it from one path, when a task failed on its node
// (§3.1) or the RM withdrew its strict request because the node is gone.
// A queued task moves to the new node's ready list so it cannot starve
// under a dead node.
func (s *staticBase) Reassign(t *wf.Task, node string) {
	old := s.pinOf(t).node
	s.plan[t.ID-1].node = node
	if old == node {
		return
	}
	q := s.ready[old]
	for i, qt := range q {
		if qt.ID == t.ID {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			s.ready[old] = q[:len(q)-1]
			s.ready[node] = s.insertByOrder(s.ready[node], t)
			break
		}
	}
}

func (s *staticBase) init(policy string) {
	s.policy = policy
	s.ready = make(map[string][]*wf.Task)
}

// RoundRobin assigns tasks to nodes in turn and thus in equal numbers — the
// basic static policy of §3.4. Tasks are walked in topological order so
// early pipeline stages spread evenly.
type RoundRobin struct {
	staticBase
}

// NewRoundRobin returns an unplanned round-robin scheduler.
func NewRoundRobin() *RoundRobin {
	rr := &RoundRobin{}
	rr.init(PolicyRoundRobin)
	return rr
}

// Plan implements StaticPlanner.
func (s *RoundRobin) Plan(dag *wf.DAG, nodes []NodeInfo) error {
	if s.planned {
		return fmt.Errorf("scheduler: %s already planned", s.policy)
	}
	if len(nodes) == 0 {
		return fmt.Errorf("scheduler: no nodes to plan onto")
	}
	s.plan, s.planned = make([]pin, len(dag.All())), true
	for i, t := range dag.TopoOrder() {
		s.plan[t.ID-1] = pin{nodes[i%len(nodes)].ID, i}
	}
	return nil
}

// HEFT is the heterogeneous-earliest-finish-time policy [Topcuoglu et al.]:
// tasks are ranked by their expected time from task onset to workflow
// terminus (upward rank) and assigned, by decreasing rank, to the node with
// the earliest finish time under insertion-based scheduling. Runtime
// estimates come from provenance; untried (signature, node) pairs estimate
// zero, which makes unexplored nodes attractive and drives the exploration
// visible in the paper's Fig. 9.
type HEFT struct {
	staticBase
	est Estimator
	rng *rand.Rand
}

// NewHEFT returns an unplanned HEFT scheduler over the estimator.
func NewHEFT(est Estimator) *HEFT {
	h := &HEFT{est: est}
	h.init(PolicyHEFT)
	return h
}

// NewHEFTSeeded returns a HEFT scheduler whose tie-breaking between
// equally-estimated nodes is randomized — with a default estimate of zero
// for untried pairs, ties are exactly the unexplored nodes, so the seed
// varies the exploration order between repetitions (as non-determinism
// does on a real cluster).
func NewHEFTSeeded(est Estimator, seed int64) *HEFT {
	h := NewHEFT(est)
	h.rng = rand.New(rand.NewSource(seed))
	return h
}

// estimate returns the latest observed runtime of signature on node, and
// zero for an untried pair — the paper's exploration strategy.
func (s *HEFT) estimate(signature, node string) float64 {
	if d, ok := s.est.LastRuntime(signature, node); ok {
		return d
	}
	return 0
}

// Plan implements StaticPlanner.
func (s *HEFT) Plan(dag *wf.DAG, nodes []NodeInfo) error {
	if s.planned {
		return fmt.Errorf("scheduler: %s already planned", s.policy)
	}
	if len(nodes) == 0 {
		return fmt.Errorf("scheduler: no nodes to plan onto")
	}
	s.plan, s.planned = make([]pin, len(dag.All())), true
	if s.rng != nil {
		nodes = append([]NodeInfo(nil), nodes...)
		s.rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	}

	// Upward ranks over mean estimates, computed in reverse topological
	// order so successors are ranked before their predecessors.
	topo := dag.TopoOrder()
	rank := make([]float64, len(topo)) // rank[id-1]
	for i := len(topo) - 1; i >= 0; i-- {
		t := topo[i]
		w := 0.0
		for _, n := range nodes {
			w += s.estimate(t.Name, n.ID)
		}
		w /= float64(len(nodes))
		maxSucc := 0.0
		for _, succ := range dag.Successors(t) {
			if r := rank[succ.ID-1]; r > maxSucc {
				maxSucc = r
			}
		}
		rank[t.ID-1] = w + maxSucc
	}

	// Decreasing rank; the stable sort keeps equal ranks in topological
	// order, for determinism (and sanity when all estimates are zero).
	byRank := slices.Clone(topo)
	sort.SliceStable(byRank, func(i, j int) bool { return rank[byRank[i].ID-1] > rank[byRank[j].ID-1] })

	// Insertion-based earliest-finish-time assignment. busy and
	// assignedCount are indexed by position in nodes.
	busy := make([][]slot, len(nodes))
	aft := make([]float64, len(topo)) // aft[id-1]: actual finish time in the plan
	assignedCount := make([]int, len(nodes))

	for pos, t := range byRank {
		ready := 0.0
		for _, p := range dag.Predecessors(t) {
			ready = max(ready, aft[p.ID-1])
		}
		best, bestEFT, bestStart := 0, math.Inf(1), 0.0
		for n := range nodes {
			w := s.estimate(t.Name, nodes[n].ID)
			start := earliestSlot(busy[n], ready, w)
			eft := start + w
			// Strictly-better EFT wins; on ties prefer the node with
			// fewer assignments so zero-estimate plans spread out and
			// explore (the paper's default-zero strategy).
			if eft < bestEFT-1e-12 ||
				(math.Abs(eft-bestEFT) <= 1e-12 && assignedCount[n] < assignedCount[best]) {
				best, bestEFT, bestStart = n, eft, start
			}
		}
		busy[best] = insertSlot(busy[best], slot{bestStart, bestEFT})
		aft[t.ID-1] = bestEFT
		assignedCount[best]++
		s.plan[t.ID-1] = pin{nodes[best].ID, pos}
	}
	return nil
}

// slot is one occupied interval in a node's planned schedule.
type slot struct{ start, end float64 }

// earliestSlot finds the earliest start ≥ ready where a task of length w
// fits into the node's schedule, considering insertion between existing
// slots. busy must be sorted by start time.
func earliestSlot(busy []slot, ready, w float64) float64 {
	start := ready
	for _, s := range busy {
		if start+w <= s.start+1e-12 {
			return start // fits in the gap before this slot
		}
		if s.end > start {
			start = s.end
		}
	}
	return start
}

// insertSlot adds a slot keeping the list sorted by start time.
func insertSlot(busy []slot, s slot) []slot {
	i := sort.Search(len(busy), func(i int) bool { return busy[i].start >= s.start })
	busy = append(busy, slot{})
	copy(busy[i+1:], busy[i:])
	busy[i] = s
	return busy
}
