package verify

import (
	"cmp"
	"fmt"
	"slices"

	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/provenance"
	"hiway/internal/wf"
	"hiway/internal/yarn"
)

// Violation is one observed invariant breach, timestamped in virtual time.
type Violation struct {
	TimeSec   float64 `json:"timeSec"`
	Invariant string  `json:"invariant"`
	Detail    string  `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%.3f %s: %s", v.TimeSec, v.Invariant, v.Detail)
}

// Names of the invariants the auditor checks; failures reference these.
const (
	InvCapacity  = "capacity-conservation" // free + in-use == node spec on every container event
	InvContainer = "container-lifecycle"   // no leaked, unknown, or double-accounted containers
	InvTerminal  = "exactly-one-terminal"  // a task completes at most once and never resubmits
	InvDepOrder  = "dependency-order"      // an attempt starts only once its inputs exist
	InvMonotone  = "monotone-time"         // hook timestamps never go backwards
	InvQuiesce   = "quiescence"            // after the run: no live containers, full capacity restored

	// InvMembership: no container is ever allocated on a draining or removed
	// node, and membership transitions themselves are well-formed (no double
	// removal, no join of a still-live node).
	InvMembership = "membership-safety"
	// InvCost: per-tenant core-second accounting sums to the cluster's
	// busy-core integral, separately per node class (on-demand vs. spot).
	InvCost = "cost-conservation"
	// InvProvOrder: the events recorded under one workflow ID never go back
	// in time, so each run's stream is sorted as recorded and per-run
	// streams can be merged without sorting them again.
	InvProvOrder = "provenance-order"
)

// maxViolations bounds how many violations one run records; a broken
// invariant usually cascades, and the first few entries carry the signal.
const maxViolations = 64

// usage tracks the capacity the auditor believes a node has handed out.
type usage struct{ cores, mem int }

// Auditor checks runtime invariants of one workflow execution. It implements
// both yarn.AuditHook (container lifecycle, capacity conservation) and
// core.AuditSink (task lifecycle, dependency order); install it with
// rm.SetAudit and core.Config.Audit before launching. All hooks run on the
// single-threaded simulation loop, so the auditor needs no locking.
//
// One auditor may span an AM kill/resume pair: task identity is per AM
// incarnation (each numbers its tasks from 1), while container and capacity
// state live in the RM, which survives the crash — exactly what the auditor
// models.
type Auditor struct {
	rm *yarn.ResourceManager
	fs *hdfs.FS

	total    map[string]usage // node → declared capacity
	used     map[string]usage // node → capacity handed to live containers
	dead     map[string]bool
	draining map[string]bool
	removed  map[string]bool

	live     map[int64]*yarn.Container // allocated, unreleased containers
	released map[int64]bool            // ever-released container IDs

	submitted map[int64]string // task ID → signature
	completed map[int64]bool
	known     map[string]bool // staged inputs + outputs of completed tasks

	last       float64
	wfEnds     int
	dropped    int // violations beyond maxViolations
	violations []Violation
}

// The auditor must satisfy both hook interfaces; the RM's membership
// events audit elastic scenarios through node churn.
var (
	_ yarn.AuditHook = (*Auditor)(nil)
	_ core.AuditSink = (*Auditor)(nil)
)

// NewAuditor builds an auditor over the environment's cluster, RM, and HDFS.
// Staged input paths must be granted via Grant before the run starts.
func NewAuditor(env core.Env) *Auditor {
	a := &Auditor{
		rm:        env.RM,
		fs:        env.FS,
		total:     make(map[string]usage),
		used:      make(map[string]usage),
		dead:      make(map[string]bool),
		draining:  make(map[string]bool),
		removed:   make(map[string]bool),
		live:      make(map[int64]*yarn.Container),
		released:  make(map[int64]bool),
		submitted: make(map[int64]string),
		completed: make(map[int64]bool),
		known:     make(map[string]bool),
	}
	for _, n := range env.Cluster.Nodes() {
		a.total[n.ID] = usage{cores: n.Spec.VCores, mem: n.Spec.MemMB}
	}
	return a
}

// Grant registers paths that legitimately exist before any task ran (the
// scenario's staged inputs).
func (a *Auditor) Grant(paths ...string) {
	for _, p := range paths {
		a.known[p] = true
	}
}

// OnResume marks the boundary between AM incarnations: task-level state is
// per-AM (a killed incarnation legitimately leaves submitted-but-never-
// completed tasks behind), while container, capacity, and node-death state
// belong to the RM, which survives the crash — late defensive re-releases
// of first-incarnation containers and nodes that died before the resume
// must not read as violations.
func (a *Auditor) OnResume() {
	a.submitted = make(map[int64]string)
	a.completed = make(map[int64]bool)
}

// Violations returns everything recorded so far.
func (a *Auditor) Violations() []Violation { return a.violations }

func (a *Auditor) report(now float64, invariant, format string, args ...any) {
	if len(a.violations) >= maxViolations {
		a.dropped++
		return
	}
	a.violations = append(a.violations, Violation{TimeSec: now, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// provenanceOrder audits what a run recorded: under each workflow ID, no
// event is stamped earlier than one recorded before it. A workflow reports
// its first step back only.
func provenanceOrder(prov *provenance.Manager) []Violation {
	evs, err := prov.Store().Events()
	if err != nil {
		return []Violation{{Invariant: InvProvOrder, Detail: fmt.Sprintf("reading provenance: %v", err)}}
	}
	var out []Violation
	last := map[string]float64{}
	broken := map[string]bool{}
	for i := range evs {
		ev := &evs[i]
		if prev, ok := last[ev.WorkflowID]; ok && ev.Timestamp < prev && !broken[ev.WorkflowID] {
			broken[ev.WorkflowID] = true
			out = append(out, Violation{TimeSec: ev.Timestamp, Invariant: InvProvOrder,
				Detail: fmt.Sprintf("%s at t=%.3f recorded after t=%.3f", ev.ID(), ev.Timestamp, prev)})
		}
		last[ev.WorkflowID] = max(last[ev.WorkflowID], ev.Timestamp)
	}
	return out
}

func (a *Auditor) mono(now float64) {
	if now < a.last {
		a.report(now, InvMonotone, "event at t=%.3f after t=%.3f", now, a.last)
		return
	}
	a.last = now
}

// checkNode cross-checks the RM's reported free capacity on one live node
// against the auditor's independently tracked in-use total.
func (a *Auditor) checkNode(now float64, node string) {
	if a.dead[node] || a.removed[node] {
		return
	}
	tot, ok := a.total[node]
	if !ok {
		a.report(now, InvCapacity, "container event on unknown node %s", node)
		return
	}
	freeC, freeM := a.rm.FreeCapacity(node)
	u := a.used[node]
	if u.cores < 0 || u.mem < 0 {
		a.report(now, InvCapacity, "node %s in-use went negative (%d cores, %d MB)", node, u.cores, u.mem)
	}
	if freeC+u.cores != tot.cores || freeM+u.mem != tot.mem {
		a.report(now, InvCapacity,
			"node %s: free %d cores/%d MB + in-use %d cores/%d MB != spec %d cores/%d MB",
			node, freeC, freeM, u.cores, u.mem, tot.cores, tot.mem)
	}
}

// OnContainerAllocated implements yarn.AuditHook.
func (a *Auditor) OnContainerAllocated(now float64, c *yarn.Container) {
	a.mono(now)
	if _, ok := a.live[c.ID]; ok {
		a.report(now, InvContainer, "container %d allocated twice", c.ID)
		return
	}
	if a.released[c.ID] {
		a.report(now, InvContainer, "container ID %d reused after release", c.ID)
	}
	if a.dead[c.NodeID] {
		a.report(now, InvContainer, "container %d allocated on dead node %s", c.ID, c.NodeID)
	}
	if a.draining[c.NodeID] {
		a.report(now, InvMembership, "container %d allocated on draining node %s", c.ID, c.NodeID)
	}
	if a.removed[c.NodeID] {
		a.report(now, InvMembership, "container %d allocated on removed node %s", c.ID, c.NodeID)
	}
	a.live[c.ID] = c
	u := a.used[c.NodeID]
	u.cores += c.Resource.VCores
	u.mem += c.Resource.MemMB
	a.used[c.NodeID] = u
	a.checkNode(now, c.NodeID)
}

// OnContainerReleased implements yarn.AuditHook. A double release (the AM
// defensively re-releases containers on several paths) is legitimate as
// long as it does not change accounting; releasing a container the RM never
// allocated is not.
func (a *Auditor) OnContainerReleased(now float64, c *yarn.Container, double bool) {
	a.mono(now)
	if double {
		if _, stillLive := a.live[c.ID]; stillLive {
			a.report(now, InvContainer, "container %d marked released but still accounted live", c.ID)
		}
		if !a.released[c.ID] {
			a.report(now, InvContainer, "container %d re-released but never seen released", c.ID)
		}
		a.checkNode(now, c.NodeID)
		return
	}
	if _, ok := a.live[c.ID]; !ok {
		a.report(now, InvContainer, "release of unknown container %d on %s", c.ID, c.NodeID)
		return
	}
	delete(a.live, c.ID)
	a.released[c.ID] = true
	u := a.used[c.NodeID]
	u.cores -= c.Resource.VCores
	u.mem -= c.Resource.MemMB
	a.used[c.NodeID] = u
	a.checkNode(now, c.NodeID)
}

// OnContainerLost implements yarn.AuditHook: the node died with the
// container on it, so its capacity vanishes rather than being credited back.
func (a *Auditor) OnContainerLost(now float64, c *yarn.Container) {
	a.mono(now)
	if _, ok := a.live[c.ID]; !ok {
		a.report(now, InvContainer, "lost container %d was not live", c.ID)
		return
	}
	delete(a.live, c.ID)
	a.released[c.ID] = true
	u := a.used[c.NodeID]
	u.cores -= c.Resource.VCores
	u.mem -= c.Resource.MemMB
	a.used[c.NodeID] = u
}

// OnNodeDead implements yarn.AuditHook.
func (a *Auditor) OnNodeDead(now float64, node string) {
	a.mono(now)
	if a.dead[node] {
		a.report(now, InvContainer, "node %s died twice", node)
	}
	a.dead[node] = true
}

// OnNodeJoined implements yarn.AuditHook: the node's capacity
// enters the audited total, and a fresh incarnation starts with a clean
// slate — rejoining under a previously used ID is legitimate only after the
// old incarnation died or was removed.
func (a *Auditor) OnNodeJoined(now float64, node string, vcores, memMB int) {
	a.mono(now)
	if _, ok := a.total[node]; ok && !a.dead[node] && !a.removed[node] {
		a.report(now, InvMembership, "node %s joined while still registered live", node)
	}
	a.total[node] = usage{cores: vcores, mem: memMB}
	a.used[node] = usage{}
	delete(a.dead, node)
	delete(a.removed, node)
	delete(a.draining, node)
}

// OnNodeDraining implements yarn.AuditHook: from this instant any
// allocation on the node is a membership-safety violation.
func (a *Auditor) OnNodeDraining(now float64, node string) {
	a.mono(now)
	if a.dead[node] || a.removed[node] {
		a.report(now, InvMembership, "dead or removed node %s started draining", node)
	}
	a.draining[node] = true
}

// OnNodeRemoved implements yarn.AuditHook. Running containers were
// already reported lost by the time this fires, so the node's remaining
// accounting must be empty; its capacity leaves the audited total.
func (a *Auditor) OnNodeRemoved(now float64, node string) {
	a.mono(now)
	if a.removed[node] {
		a.report(now, InvMembership, "node %s removed twice", node)
	}
	a.removed[node] = true
	delete(a.draining, node)
}

// OnTaskSubmitted implements core.AuditSink.
func (a *Auditor) OnTaskSubmitted(now float64, t *wf.Task) {
	a.mono(now)
	if sig, ok := a.submitted[t.ID]; ok {
		a.report(now, InvTerminal, "%s (sig %s) submitted twice", t, sig)
	}
	if a.completed[t.ID] {
		a.report(now, InvTerminal, "%s submitted after completing", t)
	}
	a.submitted[t.ID] = t.Name
}

// OnAttemptStart implements core.AuditSink: every input must already exist
// — staged, produced by a completed task, or (after a resume) recovered
// into HDFS — before an attempt may start.
func (a *Auditor) OnAttemptStart(now float64, t *wf.Task, node string, attempt int) {
	a.mono(now)
	if _, ok := a.submitted[t.ID]; !ok {
		a.report(now, InvTerminal, "attempt %d of %s started before submission", attempt, t)
	}
	if a.completed[t.ID] {
		a.report(now, InvTerminal, "attempt %d of %s started after the task completed", attempt, t)
	}
	for _, in := range t.Inputs {
		if !a.known[in] && !a.fs.Exists(in) {
			a.report(now, InvDepOrder, "attempt %d of %s started before input %s exists", attempt, t, in)
		}
	}
}

// OnAttemptEnd implements core.AuditSink.
func (a *Auditor) OnAttemptEnd(now float64, t *wf.Task, node string, attempt int, exitCode int, accepted bool) {
	a.mono(now)
	if accepted && a.completed[t.ID] {
		a.report(now, InvTerminal, "attempt %d of %s accepted after the task already completed", attempt, t)
	}
	if accepted && exitCode != 0 {
		a.report(now, InvTerminal, "attempt %d of %s accepted with exit code %d", attempt, t, exitCode)
	}
}

// OnTaskCompleted implements core.AuditSink.
func (a *Auditor) OnTaskCompleted(now float64, t *wf.Task, node string) {
	a.mono(now)
	if a.completed[t.ID] {
		a.report(now, InvTerminal, "%s reached a second terminal state", t)
	}
	a.completed[t.ID] = true
	for _, p := range t.DeclaredPaths() {
		a.known[p] = true
	}
}

// OnWorkflowEnd implements core.AuditSink.
func (a *Auditor) OnWorkflowEnd(now float64, succeeded bool) {
	a.mono(now)
	a.wfEnds++
}

// FinalCheck audits end-of-run state once the engine has quiesced:
// every container returned, full capacity restored on surviving nodes, and
// (for a successful run) every submitted task reached its terminal state.
// It appends to the violation list and returns the complete set.
func (a *Auditor) FinalCheck(succeeded bool) []Violation {
	now := a.last
	if a.wfEnds == 0 {
		a.report(now, InvQuiesce, "workflow never reached a terminal event")
	} else if a.wfEnds > 1 {
		a.report(now, InvQuiesce, "workflow ended %d times", a.wfEnds)
	}
	if n := len(a.live); n > 0 {
		ids := sortedKeys(a.live)
		a.report(now, InvQuiesce, "%d containers leaked (first: %d on %s)", n, ids[0], a.live[ids[0]].NodeID)
	}
	if rc := a.rm.RunningContainers(); rc != 0 {
		a.report(now, InvQuiesce, "RM reports %d containers still running after quiesce", rc)
	}
	for _, node := range sortedKeys(a.total) {
		tot := a.total[node]
		if a.dead[node] || a.removed[node] {
			continue
		}
		freeC, freeM := a.rm.FreeCapacity(node)
		if freeC != tot.cores || freeM != tot.mem {
			a.report(now, InvQuiesce, "node %s ended with %d/%d cores and %d/%d MB free",
				node, freeC, tot.cores, freeM, tot.mem)
		}
	}
	if succeeded {
		for _, id := range sortedKeys(a.submitted) {
			if !a.completed[id] {
				a.report(now, InvQuiesce, "task %d (sig %s) submitted but never completed in a successful run", id, a.submitted[id])
			}
		}
	}
	for _, v := range costViolations(a.rm.CostReport(), now) {
		a.report(v.TimeSec, v.Invariant, "%s", v.Detail)
	}
	if a.dropped > 0 {
		a.report(now, InvQuiesce, "%d further violations suppressed", a.dropped)
	}
	return a.violations
}

// sortedKeys returns m's keys in ascending order. Reports built by ranging
// over a map use it, so a failure reads the same on every run.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
