package scheduler

import (
	"hiway/internal/obs"
	"hiway/internal/wf"
)

// agEntry is one queued task plus its global arrival sequence number, used
// to preserve FCFS tie-breaking across signature buckets.
type agEntry struct {
	t   *wf.Task
	seq int64
}

// agBucket is the FIFO of queued tasks sharing one signature, head-indexed
// so pops are O(1) and vacated slots are nil'd.
type agBucket struct {
	entries []agEntry
	head    int
}

func (b *agBucket) empty() bool { return b.head >= len(b.entries) }

func (b *agBucket) peek() *agEntry { return &b.entries[b.head] }

func (b *agBucket) pop() *wf.Task {
	e := b.entries[b.head]
	b.entries[b.head] = agEntry{}
	b.head++
	if b.empty() {
		b.entries = b.entries[:0]
		b.head = 0
	}
	return e.t
}

// AdaptiveGreedy is a dynamic, provenance-driven policy of the kind §3.4
// announces as follow-up work to the static HEFT: when YARN allocates a
// container, it picks — among all queued tasks — the one whose runtime
// estimate on the hosting node compares most favorably to that task's mean
// runtime across nodes. Unlike HEFT it needs no upfront plan, so it also
// works for iterative workflows; unlike plain data-aware scheduling it
// adapts to heterogeneous *compute* performance rather than data locality.
//
// Estimates follow the paper's strategy: the latest observation per
// (signature, node), with unobserved pairs treated as zero so that new
// assignments get explored.
//
// The advantage of a task on a node depends only on its signature, so the
// queue is bucketed by signature: Select compares one candidate per
// distinct signature (the earliest queued) instead of scanning every task.
type AdaptiveGreedy struct {
	healthGate
	obsSink
	est  Estimator
	pred HitPredictor // nil → memo-blind declines
	sigs map[string]*agBucket
	n    int
	seq  int64

	// declineBudget bounds how often the policy may turn down an
	// allocated container on a node known to be much slower than average
	// (the AM then re-requests elsewhere). A finite budget guarantees
	// progress even when every node looks bad.
	declineBudget int
	// declineFactor: decline when the best candidate's estimate on this
	// node exceeds declineFactor × its mean. Unobserved pairs estimate
	// zero and are never declined, preserving exploration.
	declineFactor float64
}

// NewAdaptiveGreedy returns the policy backed by the estimator.
func NewAdaptiveGreedy(est Estimator) *AdaptiveGreedy {
	return &AdaptiveGreedy{
		est:           est,
		sigs:          make(map[string]*agBucket),
		declineBudget: 64,
		declineFactor: 3,
	}
}

// Name implements Scheduler.
func (s *AdaptiveGreedy) Name() string { return "adaptive-greedy" }

// SetHitPredictor implements PredictorAware: the policy consults the memo
// table's admission-time hit predictor when weighing container declines.
func (s *AdaptiveGreedy) SetHitPredictor(p HitPredictor) { s.pred = p }

// OnTaskReady implements Scheduler.
func (s *AdaptiveGreedy) OnTaskReady(t *wf.Task) {
	b := s.sigs[t.Name]
	if b == nil {
		b = &agBucket{}
		s.sigs[t.Name] = b
	}
	s.seq++
	b.entries = append(b.entries, agEntry{t: t, seq: s.seq})
	s.n++
}

// Placement implements Scheduler: fully dynamic, no pinning.
func (s *AdaptiveGreedy) Placement(*wf.Task) (string, bool) { return "", false }

// Select implements Scheduler: maximize the relative advantage of running
// each candidate on this node. advantage = mean(sig) − est(sig, node); an
// unobserved pair estimates zero, making exploration maximally attractive,
// exactly like HEFT's default-zero strategy. If even the best candidate is
// known to run declineFactor× slower here than its cross-node mean, the
// container is declined (nil) while the decline budget lasts; the AM
// re-requests a container elsewhere.
//
// Within a signature all tasks tie, so only each bucket's head competes;
// across signatures, equal advantages fall back to arrival order via the
// global sequence number — the same choice the linear scan made, but in
// O(distinct signatures). The map iteration order is irrelevant because
// (advantage, seq) is a total order.
func (s *AdaptiveGreedy) Select(node string) *wf.Task {
	if s.n == 0 {
		return nil
	}
	if !s.nodeOK(node) {
		s.noteDecline(s.Name(), node, obs.OutcomeBlacklist, s.n, 0)
		return nil
	}
	var bestB *agBucket
	var bestSeq int64
	bestAdv := 0.0
	scanned := 0
	for sig, b := range s.sigs {
		if b.empty() {
			continue
		}
		scanned++
		adv := s.advantage(sig, node)
		head := b.peek()
		if bestB == nil || adv > bestAdv || (adv == bestAdv && head.seq < bestSeq) {
			bestB, bestAdv, bestSeq = b, adv, head.seq
		}
	}
	if bestB == nil {
		return nil
	}
	t := bestB.peek().t
	if s.declineBudget > 0 && s.shouldDecline(t, node) {
		s.declineBudget--
		s.noteDecline(s.Name(), node, obs.OutcomeDecline, s.n, scanned)
		return nil
	}
	bestB.pop()
	s.n--
	s.noteAssign(s.Name(), node, t, s.n+1, scanned, -1)
	return t
}

// shouldDecline reports whether the task is known to run far slower on the
// node than its mean suggests. A hit predictor raises the bar by 1/(1−p):
// signatures the memo table is likely to serve will mostly never execute
// again, so spending the bounded decline budget hunting a faster node for
// them has little future payoff (p→1 disables declining entirely).
func (s *AdaptiveGreedy) shouldDecline(t *wf.Task, node string) bool {
	mean, ok := s.est.MeanRuntime(t.Name)
	if !ok || mean <= 0 {
		return false
	}
	last, ok := s.est.LastRuntime(t.Name, node)
	if !ok {
		return false // unobserved: explore instead
	}
	threshold := s.declineFactor * mean
	if s.pred != nil {
		if p := s.pred.HitProbability(t.Name); p > 0 {
			if p >= 1 {
				return false
			}
			threshold /= 1 - p
		}
	}
	return last > threshold
}

// advantage returns mean(sig) − last(sig, node): two constant-time
// estimator reads.
func (s *AdaptiveGreedy) advantage(sig, node string) float64 {
	mean, ok := s.est.MeanRuntime(sig)
	if !ok {
		return 0 // nothing known about the signature: neutral
	}
	last, ok := s.est.LastRuntime(sig, node)
	if !ok {
		last = 0 // unobserved here: explore
	}
	return mean - last
}

// Queued implements Scheduler.
func (s *AdaptiveGreedy) Queued() int { return s.n }
