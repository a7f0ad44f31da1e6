package scheduler

import (
	"fmt"
	"math"
	"math/rand"
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
	policy     string
	assignment map[int64]string // task ID → node
	order      map[int64]int    // task ID → dispatch priority (lower first)
	ready      map[string][]*wf.Task
	queued     int
	planned    bool
}

func (s *staticBase) Name() string { return s.policy }

// OnTaskReady implements Scheduler.
func (s *staticBase) OnTaskReady(t *wf.Task) {
	node := s.assignment[t.ID]
	s.ready[node] = s.insertByOrder(s.ready[node], t)
	s.queued++
}

// insertByOrder places t into q keeping plan priority order (binary search
// plus shift, instead of re-sorting the queue on every insertion). Equal
// priorities keep insertion order, like the stable sort they replace.
func (s *staticBase) insertByOrder(q []*wf.Task, t *wf.Task) []*wf.Task {
	pos := s.order[t.ID]
	i := sort.Search(len(q), func(k int) bool { return s.order[q[k].ID] > pos })
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = t
	return q
}

// Placement implements Scheduler: static policies enforce their plan.
func (s *staticBase) Placement(t *wf.Task) (string, bool) {
	node, ok := s.assignment[t.ID]
	if !ok {
		return "", false
	}
	return node, true
}

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

// Reassign re-pins a task to a different node — used by the AM when a task
// failed on its planned node and must be retried elsewhere (§3.1), and when
// a pinned node dies with the task still queued. A queued task moves to the
// new node's ready list so it cannot starve under a dead node.
func (s *staticBase) Reassign(t *wf.Task, node string) {
	old, ok := s.assignment[t.ID]
	s.assignment[t.ID] = node
	if !ok || old == node {
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
	s.assignment = make(map[int64]string)
	s.order = make(map[int64]int)
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
	for i, t := range dag.TopoOrder() {
		s.assignment[t.ID] = nodes[i%len(nodes)].ID
		s.order[t.ID] = i
	}
	s.planned = true
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
	if s.rng != nil {
		nodes = append([]NodeInfo(nil), nodes...)
		s.rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	}

	// Upward ranks over mean estimates, computed in reverse topological
	// order so successors are ranked before their predecessors.
	topo := dag.TopoOrder()
	rank := make(map[int64]float64, len(topo))
	for i := len(topo) - 1; i >= 0; i-- {
		t := topo[i]
		w := 0.0
		for _, n := range nodes {
			w += s.estimate(t.Name, n.ID)
		}
		w /= float64(len(nodes))
		maxSucc := 0.0
		for _, succ := range dag.Successors(t) {
			if r := rank[succ.ID]; r > maxSucc {
				maxSucc = r
			}
		}
		rank[t.ID] = w + maxSucc
	}

	// Decreasing rank; ties broken by topological position for
	// determinism (and sanity when all estimates are zero).
	topoPos := make(map[int64]int, len(topo))
	for i, t := range topo {
		topoPos[t.ID] = i
	}
	byRank := append([]*wf.Task(nil), topo...)
	sort.SliceStable(byRank, func(i, j int) bool {
		ri, rj := rank[byRank[i].ID], rank[byRank[j].ID]
		if ri != rj {
			return ri > rj
		}
		return topoPos[byRank[i].ID] < topoPos[byRank[j].ID]
	})

	// Insertion-based earliest-finish-time assignment.
	busy := make(map[string][]slot, len(nodes))
	aft := make(map[int64]float64, len(topo)) // actual finish time in the plan
	assignedCount := make(map[string]int, len(nodes))

	for pos, t := range byRank {
		ready := 0.0
		for _, p := range dag.Predecessors(t) {
			if aft[p.ID] > ready {
				ready = aft[p.ID]
			}
		}
		bestNode := ""
		bestEFT := math.Inf(1)
		bestStart := 0.0
		for _, n := range nodes {
			w := s.estimate(t.Name, n.ID)
			start := earliestSlot(busy[n.ID], ready, w)
			eft := start + w
			// Strictly-better EFT wins; on ties prefer the node with
			// fewer assignments so zero-estimate plans spread out and
			// explore (the paper's default-zero strategy).
			if eft < bestEFT-1e-12 ||
				(math.Abs(eft-bestEFT) <= 1e-12 && assignedCount[n.ID] < assignedCount[bestNode]) {
				bestNode, bestEFT, bestStart = n.ID, eft, start
			}
		}
		busy[bestNode] = insertSlot(busy[bestNode], slot{bestStart, bestEFT})
		aft[t.ID] = bestEFT
		assignedCount[bestNode]++
		s.assignment[t.ID] = bestNode
		s.order[t.ID] = pos
	}
	s.planned = true
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
