package scheduler

import (
	"fmt"

	"hiway/internal/obs"
	"hiway/internal/wf"
)

// NodeInfo describes one compute node to static planners.
type NodeInfo struct {
	ID     string
	VCores int
	MemMB  int
}

// Estimator answers runtime-estimate queries; provenance.Manager implements
// it. Estimates follow the paper's strategy: the latest observation for a
// (signature, node) pair, with zero assumed for unobserved pairs.
type Estimator interface {
	LastRuntime(signature, node string) (float64, bool)
	MeanRuntime(signature string) (float64, bool)
}

// LocalityOracle answers data-locality queries; hdfs.FS implements it.
type LocalityOracle interface {
	LocalFraction(paths []string, nodeID string) float64
}

// CandidateOracle is the extension of LocalityOracle the data-aware policy
// needs to index queued tasks by node instead of scanning the whole queue
// per freed container: CandidateNodes must return a superset of the nodes
// where LocalFraction of the paths is positive, and LocalityEpoch must
// advance whenever the locality of an existing file can change. hdfs.FS
// implements it. CandidateNodes' result may be a buffer the oracle reuses:
// it is valid only until the next call, so callers read it and drop it.
type CandidateOracle interface {
	LocalityOracle
	CandidateNodes(paths []string) []string
	LocalityEpoch() uint64
}

// EstimateVersioner is an optional extension of Estimator:
// EstimateVersion(signature) advances whenever a new observation for the
// signature arrives. provenance.Manager implements it. No policy reads it;
// it stays only because the benchmark's estimator wrapper keeps it.
type EstimateVersioner interface {
	EstimateVersion(signature string) uint64
}

// HitPredictor estimates the probability that a future task with the given
// signature will be served from the cluster memo table instead of executing.
// memo.Table implements it from its per-signature lookup/hit history.
type HitPredictor interface {
	HitProbability(signature string) float64
}

// Scheduler assigns ready tasks to allocated containers.
type Scheduler interface {
	// Name identifies the policy.
	Name() string
	// OnTaskReady enqueues a task whose data dependencies are met.
	OnTaskReady(t *wf.Task)
	// Placement returns the container request hint for the task: a node
	// preference and whether it is strict. Dynamic policies return
	// ("", false); static policies pin tasks to their planned node.
	Placement(t *wf.Task) (node string, strict bool)
	// Select removes and returns the queued task to run in a container on
	// the given node, or nil if no suitable task is queued.
	Select(node string) *wf.Task
	// Queued reports how many ready tasks await a container.
	Queued() int
}

// StaticPlanner is implemented by static policies (round-robin, HEFT) that
// build their whole schedule before execution starts. Plan must be called
// once, after parsing, with the complete DAG — hence static policies are
// incompatible with iterative languages like Cuneiform (§3.4).
type StaticPlanner interface {
	Scheduler
	Plan(dag *wf.DAG, nodes []NodeInfo) error
}

// Reassigner is implemented by static policies whose plan can be amended
// when a task must be retried on a different node after a failure.
type Reassigner interface {
	Reassign(t *wf.Task, node string)
}

// Deps carries the services policies may need.
type Deps struct {
	Locality  LocalityOracle
	Estimator Estimator
	// Predictor, when set, informs memo-aware policies how likely each
	// signature is to be served from the cluster memo table; policies that
	// ignore memoization leave it unused.
	Predictor HitPredictor
	// Obs, when set, makes every policy record its per-decision trace
	// (policy, candidates considered, locality outcome, blacklist hits)
	// into the decision log and metrics registry.
	Obs *obs.Obs
}

// Policy names accepted by New.
const (
	PolicyFCFS           = "fcfs"
	PolicyDataAware      = "dataaware"
	PolicyRoundRobin     = "roundrobin"
	PolicyHEFT           = "heft"
	PolicyAdaptiveGreedy = "adaptive"
)

// Policies lists every policy by its name, in the order the verifier's
// differential matrix runs them. New also takes "greedy" and "" for FCFS;
// those aliases are not listed, so callers that validate against this list
// refuse them.
var Policies = []string{PolicyFCFS, PolicyDataAware, PolicyRoundRobin, PolicyHEFT, PolicyAdaptiveGreedy}

// New builds a scheduler by policy name. The data-aware policy requires a
// locality oracle that is a CandidateOracle; HEFT and adaptive-greedy require
// an estimator.
func New(policy string, deps Deps) (Scheduler, error) {
	var s Scheduler
	switch policy {
	case PolicyFCFS, "greedy", "":
		s = NewFCFS()
	case PolicyDataAware:
		cand, ok := deps.Locality.(CandidateOracle)
		if !ok {
			return nil, fmt.Errorf("scheduler: data-aware policy needs a locality oracle that is a CandidateOracle, got %T", deps.Locality)
		}
		s = NewDataAware(cand)
	case PolicyRoundRobin:
		s = NewRoundRobin()
	case PolicyHEFT:
		if deps.Estimator == nil {
			return nil, fmt.Errorf("scheduler: HEFT policy needs a runtime estimator")
		}
		s = NewHEFT(deps.Estimator)
	case PolicyAdaptiveGreedy:
		if deps.Estimator == nil {
			return nil, fmt.Errorf("scheduler: adaptive-greedy policy needs a runtime estimator")
		}
		s = NewAdaptiveGreedy(deps.Estimator)
	default:
		return nil, fmt.Errorf("scheduler: unknown policy %q", policy)
	}
	if deps.Predictor != nil {
		if pa, ok := s.(PredictorAware); ok {
			pa.SetHitPredictor(deps.Predictor)
		}
	}
	if deps.Obs != nil {
		if oa, ok := s.(ObsAware); ok {
			oa.SetObs(deps.Obs)
		}
	}
	return s, nil
}

// PredictorAware is implemented by policies that consult a memo-table hit
// predictor; AdaptiveGreedy implements it.
type PredictorAware interface {
	SetHitPredictor(p HitPredictor)
}

// ObsAware is implemented by schedulers that can record per-decision
// observability. Every policy in this package implements it via obsSink.
type ObsAware interface {
	SetObs(o *obs.Obs)
}

// obsSink is the shared observability hook embedded in every policy: a
// decision log plus decision-outcome counters. All handles are nil until
// SetObs, so uninstrumented schedulers pay only nil checks.
type obsSink struct {
	dec        *obs.DecisionLog
	assignsC   *obs.Counter
	declinesC  *obs.Counter
	blacklistC *obs.Counter
	localC     *obs.Counter
}

// SetObs implements ObsAware.
func (s *obsSink) SetObs(o *obs.Obs) {
	s.dec = o.D()
	m := o.M()
	s.assignsC = m.Counter("hiway_sched_assignments_total", "tasks handed to allocated containers")
	s.declinesC = m.Counter("hiway_sched_declines_total", "containers declined by the policy (non-blacklist)")
	s.blacklistC = m.Counter("hiway_sched_blacklist_declines_total", "containers declined because the node was blacklisted")
	s.localC = m.Counter("hiway_sched_local_assignments_total", "assignments with positive input locality on the hosting node")
}

// noteAssign records one task→container binding. frac is the input-locality
// fraction of the choice on the node, or -1 when the policy did not
// consider locality.
func (s *obsSink) noteAssign(policy, node string, t *wf.Task, queued, scanned int, frac float64) {
	s.assignsC.Inc()
	if frac > 0 {
		s.localC.Inc()
	}
	s.dec.Record(obs.Decision{
		Policy: policy, Node: node, Outcome: obs.OutcomeAssign,
		Task: t.Name, TaskID: t.ID, Queued: queued, Scanned: scanned, LocalFrac: frac,
	})
}

// noteDecline records a declined container: outcome obs.OutcomeBlacklist
// when the health gate rejected the node, obs.OutcomeDecline otherwise.
func (s *obsSink) noteDecline(policy, node, outcome string, queued, scanned int) {
	if outcome == obs.OutcomeBlacklist {
		s.blacklistC.Inc()
	} else {
		s.declinesC.Inc()
	}
	s.dec.Record(obs.Decision{
		Policy: policy, Node: node, Outcome: outcome,
		Queued: queued, Scanned: scanned, LocalFrac: -1,
	})
}

// healthGate is the shared NodeHealth hook: a nil health means every node
// qualifies. Embedding it makes a policy HealthAware.
type healthGate struct {
	health NodeHealth
}

// SetNodeHealth implements HealthAware.
func (g *healthGate) SetNodeHealth(h NodeHealth) { g.health = h }

// nodeOK reports whether the node may receive work.
func (g *healthGate) nodeOK(node string) bool {
	return g.health == nil || g.health.Healthy(node)
}

// FCFS runs tasks in arrival order on whatever container comes up first.
// The queue is a head-indexed ring: pops advance the head and nil the
// vacated slot (so completed tasks are not retained by the backing array),
// and the buffer is reclaimed once drained or mostly stale.
type FCFS struct {
	healthGate
	obsSink
	queue []*wf.Task
	head  int
}

// NewFCFS returns an empty FCFS queue.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements Scheduler.
func (s *FCFS) Name() string { return PolicyFCFS }

// OnTaskReady implements Scheduler.
func (s *FCFS) OnTaskReady(t *wf.Task) { s.queue = append(s.queue, t) }

// Placement implements Scheduler: FCFS expresses no preference.
func (s *FCFS) Placement(*wf.Task) (string, bool) { return "", false }

// Select implements Scheduler: pop the head of the queue. Containers on
// blacklisted nodes are declined (nil) so the AM re-requests elsewhere.
func (s *FCFS) Select(node string) *wf.Task {
	if s.head >= len(s.queue) {
		return nil
	}
	if !s.nodeOK(node) {
		s.noteDecline(PolicyFCFS, node, obs.OutcomeBlacklist, s.Queued(), 0)
		return nil
	}
	queued := s.Queued()
	t := s.queue[s.head]
	s.queue[s.head] = nil
	s.head++
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
	} else if s.head > 64 && s.head > len(s.queue)/2 {
		s.queue = append(s.queue[:0], s.queue[s.head:]...)
		s.head = 0
	}
	s.noteAssign(PolicyFCFS, node, t, queued, 1, -1)
	return t
}

// Queued implements Scheduler.
func (s *FCFS) Queued() int { return len(s.queue) - s.head }

// daEntry is one live enqueueing of a task in the DataAware index. A task
// re-queued after a failure gets a fresh entry; superseded entries are
// detected by pointer identity against the live map and dropped lazily.
type daEntry struct {
	t   *wf.Task
	seq int64
}

// daScored is a bucket slot: an entry plus its locality fraction on the
// bucket's node, computed once at insertion (valid until the epoch moves).
type daScored struct {
	e    *daEntry
	frac float64
}

// DataAware minimizes data transfer for I/O-intensive workflows: whenever a
// container is allocated it selects, among all pending tasks, the one with
// the highest fraction of input data locally available (in HDFS) on the
// hosting node. Ties fall back to arrival order.
//
// The queue is indexed: each ready task is scored once into per-node buckets
// covering every node where its locality is positive, so Select only
// examines the handful of tasks with data on the freed node, falling back to
// plain FIFO order when none has any. Buckets are rebuilt when the oracle's
// locality epoch moves (node death, deletes, re-replication — rare), and
// stale entries are dropped lazily.
type DataAware struct {
	healthGate
	obsSink
	locality CandidateOracle

	queued  map[int64]*daEntry // task ID → live entry
	fifo    []*daEntry         // arrival order (zero-locality fallback)
	head    int                // first possibly-live fifo slot
	buckets map[string][]daScored
	epoch   uint64
	seq     int64
}

// NewDataAware returns the policy backed by the given locality oracle.
func NewDataAware(locality CandidateOracle) *DataAware {
	return &DataAware{
		locality: locality,
		queued:   make(map[int64]*daEntry),
		buckets:  make(map[string][]daScored),
		epoch:    locality.LocalityEpoch(),
	}
}

// Name implements Scheduler.
func (s *DataAware) Name() string { return PolicyDataAware }

// OnTaskReady implements Scheduler.
func (s *DataAware) OnTaskReady(t *wf.Task) {
	s.maybeInvalidate()
	s.seq++
	e := &daEntry{t: t, seq: s.seq}
	s.queued[t.ID] = e
	// An entry served from a bucket stays in fifo until the head passes
	// it; once such entries outnumber the live ones, drop them, so re-queues
	// cannot grow fifo without bound. Live entries keep their order.
	if len(s.fifo)-s.head > 2*len(s.queued)+64 {
		live := s.fifo[:0]
		for _, old := range s.fifo[s.head:] {
			if old != nil && s.queued[old.t.ID] == old {
				live = append(live, old)
			}
		}
		clear(s.fifo[len(live):])
		s.fifo, s.head = live, 0
	}
	s.fifo = append(s.fifo, e)
	s.score(e)
}

// score inserts the entry into the bucket of every node where its inputs
// have positive locality.
func (s *DataAware) score(e *daEntry) {
	for _, n := range s.locality.CandidateNodes(e.t.Inputs) {
		if frac := s.locality.LocalFraction(e.t.Inputs, n); frac > 0 {
			s.buckets[n] = append(s.buckets[n], daScored{e: e, frac: frac})
		}
	}
}

// maybeInvalidate rebuilds all buckets when the oracle's locality epoch has
// moved since they were scored.
func (s *DataAware) maybeInvalidate() {
	ep := s.locality.LocalityEpoch()
	if ep == s.epoch {
		return
	}
	s.epoch = ep
	s.buckets = make(map[string][]daScored)
	for i := s.head; i < len(s.fifo); i++ {
		if e := s.fifo[i]; e != nil && s.queued[e.t.ID] == e {
			s.score(e)
		}
	}
}

// Placement implements Scheduler: containers may land anywhere; the task
// choice adapts to wherever the container was placed.
func (s *DataAware) Placement(*wf.Task) (string, bool) { return "", false }

// Select implements Scheduler.
func (s *DataAware) Select(node string) *wf.Task {
	s.maybeInvalidate()
	if len(s.queued) == 0 {
		return nil
	}
	if !s.nodeOK(node) {
		s.noteDecline(PolicyDataAware, node, obs.OutcomeBlacklist, len(s.queued), 0)
		return nil
	}
	queuedBefore := len(s.queued)
	// Best positive-locality candidate from this node's bucket, compacting
	// stale entries in place as we scan. Ties go to the earliest arrival.
	var best *daEntry
	bestFrac := 0.0
	scanned := 0
	b := s.buckets[node]
	w := 0
	for _, sc := range b {
		if s.queued[sc.e.t.ID] != sc.e {
			continue // selected or superseded since scoring
		}
		b[w] = sc
		w++
		scanned++
		if sc.frac > bestFrac || (sc.frac == bestFrac && best != nil && sc.e.seq < best.seq) {
			best, bestFrac = sc.e, sc.frac
		}
	}
	for i := w; i < len(b); i++ {
		b[i] = daScored{}
	}
	if len(b) > 0 {
		s.buckets[node] = b[:w]
	}
	if best == nil {
		// No queued task has data on this node: plain arrival order.
		bestFrac = 0
		for s.head < len(s.fifo) {
			e := s.fifo[s.head]
			s.fifo[s.head] = nil
			s.head++
			scanned++
			if e != nil && s.queued[e.t.ID] == e {
				best = e
				break
			}
		}
		if s.head == len(s.fifo) {
			s.fifo = s.fifo[:0]
			s.head = 0
		}
		if best == nil {
			return nil
		}
	}
	delete(s.queued, best.t.ID)
	s.noteAssign(PolicyDataAware, node, best.t, queuedBefore, scanned, bestFrac)
	return best.t
}

// Queued implements Scheduler.
func (s *DataAware) Queued() int { return len(s.queued) }
