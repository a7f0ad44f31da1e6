// Package autoscale adds elastic cluster membership on top of the simulated
// substrate: a Manager that joins, drains, and removes nodes consistently
// across the cluster, YARN, and HDFS layers, and a Controller that sizes the
// cluster from load signals through pluggable policies (static, reactive,
// predictive) with hysteresis and cooldown so burst arrivals do not make it
// flap.
//
// The Manager is also the chaos.NodeReclaimer: the spot-preemption chaos
// mode drives the same two-phase notice→reclaim flow an autoscaler-initiated
// graceful decommission uses, so every membership transition — planned or
// hostile — goes through one audited code path. Everything is deterministic
// under seed: decisions derive from virtual time and seeded hashes, never
// from wall-clock or map iteration order.
package autoscale

import (
	"fmt"
	"sort"

	"hiway/internal/cluster"
	"hiway/internal/hdfs"
	"hiway/internal/obs"
	"hiway/internal/scheduler"
	"hiway/internal/yarn"
)

// ManagerConfig tunes the membership manager.
type ManagerConfig struct {
	// Spec is the hardware profile for nodes joined by the manager.
	Spec cluster.NodeSpec
	// DrainDeadlineSec bounds a graceful decommission: containers still
	// running when it expires are preempted. Default 120s.
	DrainDeadlineSec float64
	// SpotNoticeSec is the notice→reclaim gap honored when a spot node is
	// preempted through NoticeNode. Default 120s.
	SpotNoticeSec float64
	// Protected nodes are never drained or reclaimed — typically the node
	// hosting application masters.
	Protected []string
	// Health, when set, forgets departed nodes so blacklist state cannot
	// leak or outlive a node's incarnation.
	Health *scheduler.NodeHealthTracker
}

// Manager performs node membership transitions consistently across the
// cluster, RM, and filesystem layers. It implements chaos.NodeReclaimer.
type Manager struct {
	cl  *cluster.Cluster
	rm  *yarn.ResourceManager
	fs  *hdfs.FS
	cfg ManagerConfig

	protected map[string]bool
	spans     map[string]obs.SpanID

	obs     *obs.Obs
	noticeC *obs.Counter

	// lifetime statistics, readable after a run
	Joins, Leaves, Notices int
}

// NewManager builds a membership manager. A departing node's HDFS blocks
// are re-replicated onto the staying nodes; fs may be nil for runs without
// a filesystem.
func NewManager(cl *cluster.Cluster, rm *yarn.ResourceManager, fs *hdfs.FS, cfg ManagerConfig) *Manager {
	if cfg.DrainDeadlineSec <= 0 {
		cfg.DrainDeadlineSec = 120
	}
	if cfg.SpotNoticeSec <= 0 {
		cfg.SpotNoticeSec = 120
	}
	m := &Manager{
		cl:        cl,
		rm:        rm,
		fs:        fs,
		cfg:       cfg,
		protected: make(map[string]bool, len(cfg.Protected)),
		spans:     make(map[string]obs.SpanID),
	}
	for _, id := range cfg.Protected {
		m.protected[id] = true
	}
	return m
}

// SetObs attaches observability: node-lifecycle spans (join → leave) and
// the preemption-notice counter. A nil o (the default) disables all of it.
func (m *Manager) SetObs(o *obs.Obs) {
	m.obs = o
	m.noticeC = o.M().Counter("hiway_autoscale_spot_notices_total",
		"spot preemption notices delivered to nodes")
}

// Size returns the number of nodes currently eligible for allocations
// (live, not draining).
func (m *Manager) Size() int { return len(m.rm.LiveNodes()) }

// Join adds one node across all layers. An empty id auto-assigns the next
// unused name; a non-empty id lets a departed node rejoin (as a fresh
// machine — its previous replicas were forgotten when it left). Returns the
// node's id.
func (m *Manager) Join(id string, spot bool) (string, error) {
	n, err := m.cl.AddNode(id, m.cfg.Spec)
	if err != nil {
		return "", err
	}
	if err := m.rm.AddNode(n.ID, m.cfg.Spec.VCores, m.cfg.Spec.MemMB, spot); err != nil {
		m.cl.RemoveNode(n.ID)
		return "", err
	}
	m.Joins++
	if tr := m.obs.T(); tr.Enabled() {
		sp := tr.Begin("node-lifecycle", n.ID, n.ID, 0)
		if spot {
			tr.Arg(sp, "class", "spot")
		} else {
			tr.Arg(sp, "class", "on-demand")
		}
		m.spans[n.ID] = sp
	}
	return n.ID, nil
}

// AddNodes joins n spot nodes and returns their ids.
func (m *Manager) AddNodes(n int) []string {
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id, err := m.Join("", true)
		if err != nil {
			break
		}
		ids = append(ids, id)
	}
	return ids
}

// drainCandidates returns removable nodes in preferred-first order: spot
// before on-demand, then fewer running containers, then higher id (newest
// naming first) — so scale-down sheds the cheapest, emptiest capacity.
func (m *Manager) drainCandidates() []string {
	live := m.rm.LiveNodes()
	spot := make(map[string]bool)
	for _, id := range m.rm.SpotNodes() {
		spot[id] = true
	}
	cands := live[:0:0]
	for _, id := range live {
		if !m.protected[id] {
			cands = append(cands, id)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if spot[a] != spot[b] {
			return spot[a]
		}
		ra, rb := m.rm.NodeRunning(a), m.rm.NodeRunning(b)
		if ra != rb {
			return ra < rb
		}
		return a > b
	})
	return cands
}

// RemoveNodes gracefully drains up to n removable nodes and returns the ids
// chosen. Each node leaves for good once empty or at the drain deadline.
func (m *Manager) RemoveNodes(n int) []string {
	cands := m.drainCandidates()
	if n > len(cands) {
		n = len(cands)
	}
	var out []string
	for _, id := range cands[:n] {
		if err := m.Drain(id); err == nil {
			out = append(out, id)
		}
	}
	return out
}

// Drain starts a graceful decommission with the configured deadline; the
// node is removed from all layers when the drain completes. Its HDFS blocks
// start evacuating immediately, so the drain window doubles as the data
// migration window.
func (m *Manager) Drain(id string) error {
	if m.protected[id] {
		return fmt.Errorf("autoscale: node %s is protected", id)
	}
	if err := m.rm.DrainNode(id, m.cfg.DrainDeadlineSec, m.onDrained); err != nil {
		return err
	}
	m.evacuate(id)
	return nil
}

// evacuate marks a departing node as decommissioning in HDFS and kicks off
// the copies that move its blocks to staying nodes. Without this, two
// concurrent drains could take away both replicas of a block before either
// drain finishes.
func (m *Manager) evacuate(id string) {
	if m.fs == nil {
		return
	}
	m.fs.DecommissionNode(id)
	m.fs.Rereplicate(func(int) {})
}

func (m *Manager) onDrained(node string, graceful bool) {
	m.finalizeLeave(node)
}

// finalizeLeave removes a node from every layer. Idempotent: the first
// caller (drain completion, reclaim, or deadline expiry) wins.
func (m *Manager) finalizeLeave(node string) {
	if m.cl.Node(node) == nil {
		return // already gone
	}
	m.rm.RemoveNode(node) // no-op error if the RM already dropped it
	if m.fs != nil {
		m.fs.KillNode(node)
		m.fs.ForgetNode(node)
		m.fs.Rereplicate(func(int) {})
	}
	m.cl.RemoveNode(node)
	if m.cfg.Health != nil {
		m.cfg.Health.Forget(node)
	}
	m.Leaves++
	if tr := m.obs.T(); tr.Enabled() {
		if sp, ok := m.spans[node]; ok {
			tr.End(sp)
			delete(m.spans, node)
		} else {
			tr.Instant("node-lifecycle", "node-left", node)
		}
	}
}

// SpotNodes implements chaos.NodeReclaimer: live, not-yet-draining spot
// nodes minus protected ones, sorted.
func (m *Manager) SpotNodes() []string {
	all := m.rm.SpotNodes()
	out := all[:0:0]
	for _, id := range all {
		if !m.protected[id] {
			out = append(out, id)
		}
	}
	return out
}

// NoticeNode implements chaos.NodeReclaimer: a spot preemption notice
// starts an un-deadlined drain (the market's reclaim, not a timer, ends
// it). Notices for unknown, protected, or already-draining nodes are
// dropped.
func (m *Manager) NoticeNode(id string) {
	if m.protected[id] || m.cl.Node(id) == nil || m.rm.IsDraining(id) {
		return
	}
	if err := m.rm.DrainNode(id, 0, m.onDrained); err != nil {
		return
	}
	m.evacuate(id) // use the notice window to move data off the node
	m.Notices++
	m.noticeC.Inc()
	m.obs.T().Instant("node-lifecycle", "spot-notice", id)
}

// ReclaimNode implements chaos.NodeReclaimer: the node is taken away now.
// Containers still running are preempted (their tasks retry elsewhere); a
// node that already finished draining is a no-op.
func (m *Manager) ReclaimNode(id string) {
	if m.protected[id] {
		return
	}
	m.finalizeLeave(id)
}
