package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hiway/internal/wf"
)

// layeredDAG builds a seeded graph of layers × width tasks over five
// signatures; each task past the first layer reads one to three outputs of
// the two layers before it. IDs are a permutation of 1…n, so topological
// order is not ID order.
func layeredDAG(tb testing.TB, rng *rand.Rand, layers, width int) *wf.DAG {
	tb.Helper()
	perm := rng.Perm(layers * width)
	tasks := make([]*wf.Task, 0, layers*width)
	for l := 0; l < layers; l++ {
		for w := 0; w < width; w++ {
			i := l*width + w
			ins := []string{"seed"}
			if l > 0 {
				ins = nil
				for k := 1 + rng.Intn(3); k > 0; k-- {
					from := l - 1 - rng.Intn(min(l, 2))
					ins = append(ins, fmt.Sprintf("o%d", from*width+rng.Intn(width)))
				}
			}
			tasks = append(tasks, &wf.Task{ID: int64(perm[i] + 1), Name: fmt.Sprintf("sig%d", rng.Intn(5)),
				Inputs: ins, OutputParams: []string{"out"},
				Declared: map[string][]wf.FileInfo{"out": {{Path: fmt.Sprintf("o%d", i), SizeMB: 1}}}, Threads: 1})
		}
	}
	dag, err := wf.NewDAG(tasks, []string{"seed"}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return dag
}

// refHEFTPlan is HEFT.Plan as it was with per-task maps: it breaks rank
// ties by an explicit topological-position map where Plan relies on a
// stable sort over topological order. It plans with s's estimator and
// shuffle, and leaves s unplanned.
func refHEFTPlan(s *HEFT, dag *wf.DAG, nodes []NodeInfo) (map[int64]string, map[int64]int) {
	if s.rng != nil {
		nodes = append([]NodeInfo(nil), nodes...)
		s.rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	}
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
	busy := make(map[string][]slot, len(nodes))
	aft := make(map[int64]float64, len(topo))
	assignedCount := make(map[string]int, len(nodes))
	assignment := make(map[int64]string, len(topo))
	order := make(map[int64]int, len(topo))
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
			if eft < bestEFT-1e-12 ||
				(math.Abs(eft-bestEFT) <= 1e-12 && assignedCount[n.ID] < assignedCount[bestNode]) {
				bestNode, bestEFT, bestStart = n.ID, eft, start
			}
		}
		busy[bestNode] = insertSlot(busy[bestNode], slot{bestStart, bestEFT})
		aft[t.ID] = bestEFT
		assignedCount[bestNode]++
		assignment[t.ID] = bestNode
		order[t.ID] = pos
	}
	return assignment, order
}

// TestHEFTPlanMatchesTopoPosReference plans seeded graphs with HEFT and with
// refHEFTPlan and wants the same node and dispatch priority for every task:
// with all-zero estimates, where every rank ties, and with mixed estimates
// (some pairs untried, the rest 1–40 s), unshuffled and seeded.
func TestHEFTPlanMatchesTopoPosReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dag := layeredDAG(t, rng, 2+rng.Intn(7), 1+rng.Intn(10))
		var ns []string
		for i := 1 + rng.Intn(6); i > 0; i-- {
			ns = append(ns, fmt.Sprintf("n%d", i))
		}
		est := &fakeEstimator{runtimes: map[string]map[string]float64{}}
		mixed := seed%2 == 0
		if mixed {
			for sig := 0; sig < 5; sig++ {
				byNode := map[string]float64{}
				for _, n := range ns {
					if rng.Intn(3) > 0 {
						byNode[n] = float64(1 + rng.Intn(40))
					}
				}
				est.runtimes[fmt.Sprintf("sig%d", sig)] = byNode
			}
		}
		h, ref := NewHEFT(est), NewHEFT(est)
		if seed%3 == 0 {
			h, ref = NewHEFTSeeded(est, seed), NewHEFTSeeded(est, seed)
		}
		if err := h.Plan(dag, nodes(ns...)); err != nil {
			t.Fatal(err)
		}
		assignment, order := refHEFTPlan(ref, dag, nodes(ns...))
		for _, task := range dag.All() {
			node, strict := h.Placement(task)
			if !strict || node != assignment[task.ID] || h.plan[task.ID-1].order != order[task.ID] {
				t.Fatalf("seed %d (mixed %v): %s planned on %s at %d, reference %s at %d",
					seed, mixed, task, node, h.plan[task.ID-1].order, assignment[task.ID], order[task.ID])
			}
		}
	}
}
