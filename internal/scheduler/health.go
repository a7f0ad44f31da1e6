package scheduler

import "sync"

// NodeHealth answers "should this node receive work right now?". All
// scheduling policies consult it (when set) before handing a task to an
// allocated container, so a node that keeps failing or timing out attempts
// stops attracting work regardless of policy.
type NodeHealth interface {
	Healthy(node string) bool
}

// HealthAware is implemented by schedulers that can consult a NodeHealth.
// Every policy in this package implements it.
type HealthAware interface {
	SetNodeHealth(h NodeHealth)
}

// The tracker's tuning. Every caller ran it at these values, so they are
// constants rather than settings.
const (
	healthThreshold  = 3  // consecutive failures that blacklist a node
	healthPenaltySec = 60 // first blacklist window; doubles per failed re-admission
)

// NodeHealthTracker is the default NodeHealth: healthThreshold consecutive
// failures or timeouts on a node blacklist it for healthPenaltySec; each
// expiry leaves the node on probation, where a single further failure
// re-blacklists it with a doubled penalty (backoff-style re-admission), and
// a success fully rehabilitates it. Time is whatever clock the constructor
// is given — the simulator passes its virtual clock.
type NodeHealthTracker struct {
	mu    sync.Mutex
	now   func() float64
	nodes map[string]*nodeState
}

type nodeState struct {
	consecutive int
	penaltySec  float64 // current penalty window; doubles per re-admission failure
	until       float64 // blacklisted until this time; 0 = not blacklisted
}

// NewNodeHealthTracker builds a tracker over the given clock.
func NewNodeHealthTracker(now func() float64) *NodeHealthTracker {
	return &NodeHealthTracker{now: now, nodes: make(map[string]*nodeState)}
}

// Healthy implements NodeHealth.
func (h *NodeHealthTracker) Healthy(node string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.nodes[node]
	return st == nil || h.now() >= st.until
}

// ReportSuccess fully rehabilitates the node: the failure streak, penalty,
// and probation state are cleared.
func (h *NodeHealthTracker) ReportSuccess(node string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.nodes, node)
}

// ReportFailure records one failed or timed-out attempt on the node. Once
// the consecutive-failure streak reaches the threshold the node is
// blacklisted for the penalty window; a failure on probation (after the
// window expired) re-blacklists immediately with a doubled window.
func (h *NodeHealthTracker) ReportFailure(node string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.nodes[node]
	if st == nil {
		st = &nodeState{}
		h.nodes[node] = st
	}
	st.consecutive++
	onProbation := st.penaltySec > 0 && h.now() >= st.until
	switch {
	case onProbation:
		// Re-admission failed: double the penalty, no threshold grace.
		st.penaltySec *= 2
		st.until = h.now() + st.penaltySec
		st.consecutive = 0
	case st.consecutive >= healthThreshold && h.now() >= st.until:
		if st.penaltySec == 0 {
			st.penaltySec = healthPenaltySec
		}
		st.until = h.now() + st.penaltySec
		st.consecutive = 0
	}
}

// Forget drops all tracked state for a node that left the cluster. Unlike
// ReportSuccess (same effect, different intent) this is membership cleanup:
// without it a long elastic run leaks one entry per departed node, and a
// node rejoining under the same ID would inherit the old machine's penalty.
func (h *NodeHealthTracker) Forget(node string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.nodes, node)
}
