package scheduler

import (
	"fmt"
	"strings"
	"testing"

	"hiway/internal/provenance"
	"hiway/internal/wf"
)

// benchOracle answers locality queries from a deterministic hash — the
// stand-in for hdfs.FS in scheduler-only benchmarks. Like real HDFS
// placement, each input set is local to a minority of nodes (hash-selected),
// and LocalFraction is positive exactly on those, so CandidateNodes is
// consistent with LocalFraction as the CandidateOracle contract requires.
type benchOracle struct {
	nodes []string
	cand  map[string][]string // joined paths → candidate nodes (the namenode answers this from block metadata in O(replicas))
}

func benchHash(paths []string, nodeID string) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range paths {
		for i := 0; i < len(p); i++ {
			h = (h ^ uint64(p[i])) * 1099511628211
		}
	}
	for i := 0; i < len(nodeID); i++ {
		h = (h ^ uint64(nodeID[i])) * 1099511628211
	}
	return h
}

func (o *benchOracle) LocalFraction(paths []string, nodeID string) float64 {
	h := benchHash(paths, nodeID)
	if h%16 != 0 {
		return 0
	}
	return float64(h/16%1000+1) / 1001
}

func (o *benchOracle) CandidateNodes(paths []string) []string {
	key := strings.Join(paths, "\x00")
	if c, ok := o.cand[key]; ok {
		return c
	}
	var out []string
	for _, n := range o.nodes {
		if benchHash(paths, n)%16 == 0 {
			out = append(out, n)
		}
	}
	if o.cand == nil {
		o.cand = make(map[string][]string)
	}
	o.cand[key] = out
	return out
}

func (o *benchOracle) LocalityEpoch() uint64 { return 0 }

// benchEstimator answers runtime-estimate queries deterministically.
type benchEstimator struct{}

func (benchEstimator) LastRuntime(signature, node string) (float64, bool) {
	if (len(signature)+len(node))%3 == 0 {
		return 0, false
	}
	return float64((len(signature)*7+len(node)*13)%50 + 1), true
}

func (benchEstimator) MeanRuntime(signature string) (float64, bool) {
	return float64(len(signature)%40 + 5), true
}

// benchTasks builds n tasks over s distinct signatures with small input sets.
func benchTasks(n, s int) []*wf.Task {
	tasks := make([]*wf.Task, n)
	for i := range tasks {
		tasks[i] = &wf.Task{
			ID:     int64(i + 1),
			Name:   fmt.Sprintf("sig-%02d", i%s),
			Inputs: []string{fmt.Sprintf("/in/part-%03d", i%64), "/ref/genome"},
		}
	}
	return tasks
}

// placement is one task churn handed a container, and the container's node.
type placement struct {
	t    *wf.Task
	node string
}

// churn drives a policy through a large-cluster schedule: tasks become ready
// in waves and every Select mimics a freed container on a rotating node —
// the per-container hot path of the Workflow Scheduler. done, when not nil,
// is told of every task a wave placed before the next wave starts.
func churn(b *testing.B, mk func() Scheduler, tasks []*wf.Task, nodes int, done func(t *wf.Task, node string)) {
	b.Helper()
	b.ReportAllocs()
	nodeIDs := make([]string, nodes)
	for i := range nodeIDs {
		nodeIDs[i] = fmt.Sprintf("node-%03d", i)
	}
	placed := make([]placement, 0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := mk()
		next := 0
		selected := 0
		for selected < len(tasks) {
			// A wave of tasks becomes ready (upstream completions).
			for w := 0; w < 32 && next < len(tasks); w++ {
				s.OnTaskReady(tasks[next])
				next++
			}
			// Containers free up on rotating nodes; each picks a task.
			placed = placed[:0]
			for c := 0; c < 16 && s.Queued() > 0; c++ {
				node := nodeIDs[(selected+c)%nodes]
				if t := s.Select(node); t != nil {
					placed = append(placed, placement{t, node})
					selected++
				}
			}
			if done != nil {
				for _, p := range placed {
					done(p.t, p.node)
				}
			}
		}
	}
}

func BenchmarkFCFSChurn(b *testing.B) {
	tasks := benchTasks(10000, 8)
	churn(b, func() Scheduler { return NewFCFS() }, tasks, 256, nil)
}

func benchNodeIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%03d", i)
	}
	return ids
}

func BenchmarkDataAwareChurn(b *testing.B) {
	tasks := benchTasks(4000, 8)
	oracle := &benchOracle{nodes: benchNodeIDs(256)}
	churn(b, func() Scheduler { return NewDataAware(oracle) }, tasks, 256, nil)
}

func BenchmarkAdaptiveGreedyChurn(b *testing.B) {
	tasks := benchTasks(4000, 8)
	churn(b, func() Scheduler { return NewAdaptiveGreedy(benchEstimator{}) }, tasks, 256, nil)
}

// BenchmarkAdaptiveGreedyManagerChurn is BenchmarkAdaptiveGreedyChurn over
// a real provenance.Manager: every task a wave placed records its end
// before the next wave, so the estimates move while the queue drains, as
// they do under a running AM.
func BenchmarkAdaptiveGreedyManagerChurn(b *testing.B) {
	tasks := benchTasks(4000, 8)
	var mgr *provenance.Manager
	churn(b, func() Scheduler {
		var err error
		if mgr, err = provenance.NewManager(provenance.NewMemStore()); err != nil {
			b.Fatal(err)
		}
		return NewAdaptiveGreedy(mgr)
	}, tasks, 256, func(t *wf.Task, node string) {
		ev := provenance.Event{Type: provenance.TaskEnd, Signature: t.Name, Node: node,
			DurationSec: float64((len(t.Name)*7+int(node[len(node)-1])*13+int(t.ID))%50 + 1)}
		if err := mgr.Record(ev); err != nil {
			b.Fatal(err)
		}
	})
}
