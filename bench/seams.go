package main

import (
	"time"

	"hiway/internal/obs"
	"hiway/internal/provenance"
	"hiway/internal/scheduler"
	"hiway/internal/wf"
)

// This file holds the seam wrappers of the traced run: thin decorators over
// the interfaces one layer hands to another (wf.Driver, scheduler.Scheduler,
// scheduler.LocalityOracle, scheduler.Estimator, provenance.Store). Each
// accumulates the wall time and call count of the layer behind it, from
// outside, without touching the layer. A wrapper must keep every optional
// interface the wrapped value implements — core and the policies pick code
// paths by type assertion — so each has a plain and an extended variant and
// a constructor that picks by the same assertion. TestWrapperTransparency
// pins that wrapping changes no digest.

// spanTrack is the timeline the simulator workloads' spans render on.
const spanTrack = "sim"

// seamClock is one traced run's accumulator set. Seams nest (a data-aware
// OnTaskReady calls the locality oracle, an adaptive Select calls the
// estimator); depth tracks the nesting so outer sums only outermost calls
// and loop − outer is the time spent in no seam at all.
type seamClock struct {
	depth int
	outer time.Duration

	// Parse and Plan run once per leg and get a span each; the per-task
	// seams are far too many for spans and only accumulate.
	tr     *obs.Tracer
	parent obs.SpanID

	parse         time.Duration
	onComplete    time.Duration
	onCompleteN   int64
	ready         time.Duration
	sel           time.Duration
	selN, assignN int64
	plan          time.Duration
	locality      time.Duration
	localityN     int64
	estimate      time.Duration
	estimateN     int64
	appendT       time.Duration
	events        int64
	batches       int64
}

func (c *seamClock) enter() time.Time {
	c.depth++
	return time.Now()
}

func (c *seamClock) leave(t0 time.Time, acc *time.Duration) {
	d := time.Since(t0)
	*acc += d
	c.depth--
	if c.depth == 0 {
		c.outer += d
	}
}

// --- wf.Driver ---

type timedDriver struct {
	wf.Driver
	c *seamClock
}

func (d *timedDriver) Parse() ([]*wf.Task, error) {
	defer d.c.tr.End(d.c.tr.Begin("seam", "lang.parse", spanTrack, d.c.parent))
	defer d.c.leave(d.c.enter(), &d.c.parse)
	return d.Driver.Parse()
}

func (d *timedDriver) OnTaskComplete(res *wf.TaskResult) ([]*wf.Task, error) {
	d.c.onCompleteN++
	defer d.c.leave(d.c.enter(), &d.c.onComplete)
	return d.Driver.OnTaskComplete(res)
}

// timedStaticDriver keeps wf.StaticDriver, which static planners require.
type timedStaticDriver struct {
	timedDriver
	static wf.StaticDriver
}

func (d *timedStaticDriver) Graph() *wf.DAG { return d.static.Graph() }

func wrapDriver(d wf.Driver, c *seamClock) wf.Driver {
	td := timedDriver{Driver: d, c: c}
	if sd, ok := d.(wf.StaticDriver); ok {
		return &timedStaticDriver{timedDriver: td, static: sd}
	}
	return &td
}

// --- scheduler.Scheduler ---

// timedSched forwards the optional setter interfaces (HealthAware,
// ObsAware, PredictorAware) unconditionally: a setter that reaches a policy
// without the interface is dropped, which is what the caller's failed type
// assertion would have done.
type timedSched struct {
	scheduler.Scheduler
	c *seamClock
}

func (s *timedSched) OnTaskReady(t *wf.Task) {
	defer s.c.leave(s.c.enter(), &s.c.ready)
	s.Scheduler.OnTaskReady(t)
}

func (s *timedSched) Select(node string) *wf.Task {
	s.c.selN++
	t0 := s.c.enter()
	t := s.Scheduler.Select(node)
	s.c.leave(t0, &s.c.sel)
	if t != nil {
		s.c.assignN++
	}
	return t
}

func (s *timedSched) SetNodeHealth(h scheduler.NodeHealth) {
	if ha, ok := s.Scheduler.(scheduler.HealthAware); ok {
		ha.SetNodeHealth(h)
	}
}

func (s *timedSched) SetObs(o *obs.Obs) {
	if oa, ok := s.Scheduler.(scheduler.ObsAware); ok {
		oa.SetObs(o)
	}
}

func (s *timedSched) SetHitPredictor(p scheduler.HitPredictor) {
	if pa, ok := s.Scheduler.(scheduler.PredictorAware); ok {
		pa.SetHitPredictor(p)
	}
}

// timedStaticSched keeps StaticPlanner and Reassigner: core.Launch plans
// only schedulers that assert to StaticPlanner, and pins retried tasks only
// through Reassigner.
type timedStaticSched struct {
	timedSched
	planner scheduler.StaticPlanner
}

func (s *timedStaticSched) Plan(dag *wf.DAG, nodes []scheduler.NodeInfo) error {
	defer s.c.tr.End(s.c.tr.Begin("seam", "scheduler.plan", spanTrack, s.c.parent))
	defer s.c.leave(s.c.enter(), &s.c.plan)
	return s.planner.Plan(dag, nodes)
}

func (s *timedStaticSched) Reassign(t *wf.Task, node string) {
	if ra, ok := s.planner.(scheduler.Reassigner); ok {
		ra.Reassign(t, node)
	}
}

func wrapScheduler(s scheduler.Scheduler, c *seamClock) scheduler.Scheduler {
	ts := timedSched{Scheduler: s, c: c}
	if p, ok := s.(scheduler.StaticPlanner); ok {
		return &timedStaticSched{timedSched: ts, planner: p}
	}
	return &ts
}

// --- scheduler.LocalityOracle ---

type timedLocality struct {
	inner scheduler.LocalityOracle
	c     *seamClock
}

func (l *timedLocality) LocalFraction(paths []string, node string) float64 {
	l.c.localityN++
	defer l.c.leave(l.c.enter(), &l.c.locality)
	return l.inner.LocalFraction(paths, node)
}

// timedCandidates keeps CandidateOracle, without which DataAware falls back
// from its per-node index to a whole-queue scan.
type timedCandidates struct {
	timedLocality
	cand scheduler.CandidateOracle
}

func (l *timedCandidates) CandidateNodes(paths []string) []string {
	l.c.localityN++
	defer l.c.leave(l.c.enter(), &l.c.locality)
	return l.cand.CandidateNodes(paths)
}

func (l *timedCandidates) LocalityEpoch() uint64 { return l.cand.LocalityEpoch() }

func wrapLocality(o scheduler.LocalityOracle, c *seamClock) scheduler.LocalityOracle {
	tl := timedLocality{inner: o, c: c}
	if co, ok := o.(scheduler.CandidateOracle); ok {
		return &timedCandidates{timedLocality: tl, cand: co}
	}
	return &tl
}

// --- scheduler.Estimator ---

type timedEstimator struct {
	inner scheduler.Estimator
	c     *seamClock
}

func (e *timedEstimator) LastRuntime(sig, node string) (float64, bool) {
	e.c.estimateN++
	defer e.c.leave(e.c.enter(), &e.c.estimate)
	return e.inner.LastRuntime(sig, node)
}

func (e *timedEstimator) MeanRuntime(sig string) (float64, bool) {
	e.c.estimateN++
	defer e.c.leave(e.c.enter(), &e.c.estimate)
	return e.inner.MeanRuntime(sig)
}

// timedVersionedEstimator keeps EstimateVersioner, which AdaptiveGreedy
// needs to memoize per-signature advantages.
type timedVersionedEstimator struct {
	timedEstimator
	ver scheduler.EstimateVersioner
}

func (e *timedVersionedEstimator) EstimateVersion(sig string) uint64 {
	e.c.estimateN++
	defer e.c.leave(e.c.enter(), &e.c.estimate)
	return e.ver.EstimateVersion(sig)
}

func wrapEstimator(est scheduler.Estimator, c *seamClock) scheduler.Estimator {
	te := timedEstimator{inner: est, c: c}
	if v, ok := est.(scheduler.EstimateVersioner); ok {
		return &timedVersionedEstimator{timedEstimator: te, ver: v}
	}
	return &te
}

// --- provenance.Store ---

type timedStore struct {
	provenance.Store
	c *seamClock
}

func (s *timedStore) Append(ev provenance.Event) error {
	s.c.events++
	s.c.batches++
	defer s.c.leave(s.c.enter(), &s.c.appendT)
	return s.Store.Append(ev)
}

// timedBatchStore keeps BatchAppender, so the Manager's buffered flush stays
// one AppendBatch per 128 events and does not degrade to 128 Appends.
type timedBatchStore struct {
	timedStore
	batch provenance.BatchAppender
}

func (s *timedBatchStore) AppendBatch(evs []provenance.Event) error {
	s.c.events += int64(len(evs))
	s.c.batches++
	defer s.c.leave(s.c.enter(), &s.c.appendT)
	return s.batch.AppendBatch(evs)
}

func wrapStore(st provenance.Store, c *seamClock) provenance.Store {
	ts := timedStore{Store: st, c: c}
	if ba, ok := st.(provenance.BatchAppender); ok {
		return &timedBatchStore{timedStore: ts, batch: ba}
	}
	return &ts
}
