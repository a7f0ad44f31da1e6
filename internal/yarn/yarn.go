package yarn

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"hiway/internal/cluster"
	"hiway/internal/obs"
	"hiway/internal/sim"
)

// Resource is a container's size: virtual cores and memory.
type Resource struct {
	VCores int
	MemMB  int
}

// Fits reports whether r fits into the given free capacity.
func (r Resource) Fits(freeCores, freeMem int) bool {
	return r.VCores <= freeCores && r.MemMB <= freeMem
}

func (r Resource) String() string {
	return fmt.Sprintf("<%d vcores, %d MB>", r.VCores, r.MemMB)
}

// Container is an allocated bundle of resources on one node.
type Container struct {
	ID     int64
	NodeID string
	// Slot is the hosting node's cluster slot (see cluster.Node.Slot), or
	// -1 for a node the RM was given that the cluster does not hold.
	Slot     int32
	Resource Resource
	// Tenant is the owning application's tenant ("" for untenanted apps).
	Tenant string
	// AM marks the application-master container; AM containers are exempt
	// from per-tenant worker-container quotas.
	AM bool

	// OnLost, if set by the owning application, is invoked when the
	// hosting node dies while the container is allocated.
	OnLost func()

	nm       *nodeManager // the hosting node's incarnation
	released bool
	allocAt  float64    // allocation time, for per-tenant cost attribution
	span     obs.SpanID // container span (allocate → release), 0 when obs is off
}

// Request asks the ResourceManager for one container.
type Request struct {
	Resource Resource
	// NodeHint names a preferred node. For a strict request it is the only
	// node the request may run on; otherwise the hint is best-effort and
	// any node may be chosen (relaxed locality).
	NodeHint string
	// OnUnplaceable makes the request strict (static schedulers). The
	// request waits for capacity on exactly NodeHint, and the first
	// allocation round that finds that node out of the node table, dead or
	// draining withdraws it and calls OnUnplaceable, whether the node left
	// before or after the request was made. The owner decides where to go
	// next (typically re-plan and re-request).
	OnUnplaceable func(req Request)
}

// heartbeatSec is the allocation latency: requests are matched to free
// capacity one heartbeat after arrival/release, as in YARN's
// heartbeat-driven allocation.
const heartbeatSec = 0.25

// Config tunes the ResourceManager.
type Config struct {
	// AMResource is the container size used for application masters.
	// Default 1 vcore, 1024 MB. VCores may be zero: the AM is a thin
	// process whose vcore reservation need not block task containers
	// (YARN does not enforce vcores by default).
	AMResource Resource
	// Tenants configures per-tenant fair-share weights and hard quota caps
	// for the multi-tenant service tier. Tenants absent from the map get
	// weight 1 and no cap.
	Tenants map[string]TenantPolicy
}

// TenantPolicy tunes one tenant's share of the cluster.
type TenantPolicy struct {
	// Weight is the tenant's fair-share weight: each allocation round
	// serves up to Weight of the tenant's requests before moving on.
	// Weight 0 declares a background tenant, ordered after every
	// positively weighted tenant's requests. Tenants absent from
	// Config.Tenants default to weight 1.
	Weight int
	// MaxContainers caps the tenant's concurrently allocated worker
	// containers across all of its applications — a hard quota the
	// allocator never exceeds, even when the cluster is otherwise idle.
	// AM containers are exempt. 0 means no cap.
	MaxContainers int
}

func (c *Config) setDefaults() {
	if c.AMResource.VCores <= 0 && c.AMResource.MemMB <= 0 {
		c.AMResource = Resource{VCores: 1, MemMB: 1024}
	}
}

type nodeManager struct {
	id         string
	slot       int32 // the node's cluster slot, -1 if the cluster lacks it
	rank       int   // position in the RM's node table (byte order of id)
	totalCores int
	totalMem   int
	freeCores  int
	freeMem    int
	dead       bool
	spot       bool // spot instance: cheaper node-seconds, reclaimable by chaos
	draining   bool // graceful decommission in progress: no new allocations
	gone       bool // out of the node table: removed, or replaced by a rejoin
	running    map[int64]*Container
	bucket     int          // free-cores index bucket, -1 while unallocatable
	bucketPos  int          // position within that bucket, for O(1) swap-removal
	allocC     *obs.Counter // containers allocated here, nil when obs is off

	// cost accounting: piecewise integral of allocated (busy) cores.
	joinedAt    float64
	busyMark    float64 // last time busyCoreSec was brought up to date
	busyCoreSec float64

	// drain bookkeeping
	drainDone func(node string, graceful bool) // pending completion callback
	drainGen  int                              // guards stale deadline events
}

type pendingReq struct {
	app  *Application // nil once granted: the request has left its queue
	req  Request
	hint *nodeManager // the node req.NodeHint named when last looked up
	onOK func(*Container)
	at   float64 // request arrival time, for allocation-latency metrics
}

// AuditHook observes the RM's container lifecycle at the exact points
// resource accounting changes. The verify layer installs an invariant
// auditor here; a nil hook (the default) costs one nil check per event.
// Hooks run synchronously inside the RM, so they must not call back into it.
type AuditHook interface {
	// OnContainerAllocated fires when capacity is debited for a container
	// (worker and AM containers alike).
	OnContainerAllocated(now float64, c *Container)
	// OnContainerReleased fires on every Release call, before the
	// idempotency check; double is true when the container had already been
	// released (a defensive re-release, which must not credit capacity).
	OnContainerReleased(now float64, c *Container, double bool)
	// OnContainerLost fires for each running container destroyed by a node
	// failure; its capacity is gone with the node, not credited back.
	OnContainerLost(now float64, c *Container)
	// OnNodeDead fires once when a node is killed, before its containers
	// are reported lost.
	OnNodeDead(now float64, node string)
	// OnNodeJoined fires when a node joins mid-run, after its capacity is
	// registered but before any allocation can land on it.
	OnNodeJoined(now float64, node string, vcores, memMB int)
	// OnNodeDraining fires when a graceful decommission starts; from this
	// instant no new container may be allocated on the node.
	OnNodeDraining(now float64, node string)
	// OnNodeRemoved fires when a node leaves for good (drain complete or
	// spot reclaim), after its running containers were reported lost.
	OnNodeRemoved(now float64, node string)
}

// ResourceManager allocates containers over the simulated cluster.
type ResourceManager struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	cfg Config

	// nodes is the node table, sorted by ID in byte order: dead and
	// draining nodes stay until RemoveNode. Each node's rank is its
	// position here, so comparing ranks compares IDs bytewise.
	nodes []*nodeManager
	// apps holds the unfinished applications in ID order; each queues its
	// own requests.
	apps []*Application

	// freeIdx buckets allocatable (alive, non-draining) nodes by free core
	// count, so pickNode finds the most-free node in O(1) instead of
	// scanning every node per container. Within a bucket nodes sit in
	// insertion order, maintained by O(1) swap-removal — deterministic for
	// a given event history, which is all byte-identical replay needs.
	freeIdx [][]*nodeManager

	// tenantUse counts live worker containers per tenant (AM containers
	// are exempt) — the quantity quota caps bound.
	tenantUse map[string]int

	// cost accounting, by node class and tenant. Departed nodes fold their
	// totals into the finalized sums so the maps stay bounded under churn.
	tenantCost      map[string]*TenantCost
	onDemandNodeSec float64 // finalized alive node-seconds, on-demand nodes
	spotNodeSec     float64 // finalized alive node-seconds, spot nodes
	onDemandBusySec float64 // finalized busy core-seconds, on-demand nodes
	spotBusySec     float64 // finalized busy core-seconds, spot nodes

	nextApp       int
	nextContainer int64
	allocPending  bool
	allocLatEWMA  float64 // exponentially weighted recent allocation latency

	audit AuditHook // optional invariant auditor; nil disables

	// releaseSkew is a deliberate accounting error injected by tests: every
	// release credits this many extra vcores. It exists solely so the verify
	// layer can prove its capacity-conservation auditor detects broken
	// release accounting; production code never sets it.
	releaseSkew int

	// allocation-round scratch and the pendingReq free list; request
	// records recycle once their allocation callback has run.
	doneScratch []*pendingReq
	ctrScratch  []*Container
	reqFree     []*pendingReq

	preempted int // running containers preempted by node removal

	// observability (nil handles when disabled — all no-ops)
	obs        *obs.Obs
	requestsC  *obs.Counter
	allocatedC *obs.Counter
	lostC      *obs.Counter
	killedC    *obs.Counter
	preemptedC *obs.Counter
	allocLatH  *obs.Histogram
}

// SetObs attaches the observability layer: container spans on per-node
// tracks, request→allocate latency, and per-node allocation counters. Call
// before submitting applications; a nil o (the default) disables all of it.
func (rm *ResourceManager) SetObs(o *obs.Obs) {
	rm.obs = o
	m := o.M()
	rm.requestsC = m.Counter("hiway_yarn_requests_total", "container requests queued at the RM")
	rm.allocatedC = m.Counter("hiway_yarn_containers_allocated_total", "containers allocated (incl. AM containers)")
	rm.lostC = m.Counter("hiway_yarn_containers_lost_total", "running containers lost to node failures")
	rm.killedC = m.Counter("hiway_yarn_nodes_killed_total", "nodes failed during the run")
	rm.preemptedC = m.Counter("hiway_yarn_preempted_total", "running containers preempted by node removal (spot reclaim or drain-deadline expiry)")
	rm.allocLatH = m.Histogram("hiway_yarn_allocation_latency_seconds",
		"virtual seconds from container request to allocation",
		[]float64{0.25, 0.5, 1, 2, 5, 10, 30, 60, 120})
	for _, nm := range rm.nodes {
		nm.allocC = rm.nodeCounter(nm.id)
	}
}

// nodeCounter returns the node's allocation counter (nil when obs is off).
func (rm *ResourceManager) nodeCounter(id string) *obs.Counter {
	return rm.obs.M().CounterL("hiway_yarn_node_containers_total", "containers allocated per node", "node", id)
}

// SetAudit installs an invariant auditor over the RM's container lifecycle.
// Call before submitting applications; a nil hook (the default) disables it.
func (rm *ResourceManager) SetAudit(h AuditHook) { rm.audit = h }

// SetReleaseSkewForTesting injects a deliberate off-by-skew accounting error
// into container release: every release credits skew extra vcores back to the
// node. It exists so tests can prove the capacity-conservation auditor
// actually detects broken release accounting; never call it outside tests.
func (rm *ResourceManager) SetReleaseSkewForTesting(skew int) { rm.releaseSkew = skew }

// NewResourceManager builds an RM over the cluster's nodes.
func NewResourceManager(eng *sim.Engine, c *cluster.Cluster, cfg Config) *ResourceManager {
	cfg.setDefaults()
	rm := &ResourceManager{
		eng:        eng,
		cl:         c,
		cfg:        cfg,
		tenantUse:  make(map[string]int),
		tenantCost: make(map[string]*TenantCost),
	}
	now := eng.Now()
	for _, n := range c.Nodes() {
		nm := &nodeManager{
			id:         n.ID,
			slot:       n.Slot,
			totalCores: n.Spec.VCores,
			totalMem:   n.Spec.MemMB,
			freeCores:  n.Spec.VCores,
			freeMem:    n.Spec.MemMB,
			running:    make(map[int64]*Container),
			joinedAt:   now,
			busyMark:   now,
			bucket:     -1,
		}
		rm.nodes = append(rm.nodes, nm)
		rm.idxSync(nm)
	}
	slices.SortFunc(rm.nodes, func(a, b *nodeManager) int { return strings.Compare(a.id, b.id) })
	rm.rerank(0)
	return rm
}

// rerank renumbers the ranks of the node table from position i on, after
// a node entered or left there.
func (rm *ResourceManager) rerank(i int) {
	for ; i < len(rm.nodes); i++ {
		rm.nodes[i].rank = i
	}
}

// find returns the node table position of a node ID and whether a node
// with that ID is registered there.
func (rm *ResourceManager) find(id string) (int, bool) {
	return slices.BinarySearchFunc(rm.nodes, id, func(nm *nodeManager, id string) int { return strings.Compare(nm.id, id) })
}

// node returns the registered node with the ID, or nil.
func (rm *ResourceManager) node(id string) *nodeManager {
	if i, ok := rm.find(id); ok {
		return rm.nodes[i]
	}
	return nil
}

// accrueBusy brings a node's busy-core integral up to now. It must run
// before every capacity change on the node and before reading cost totals.
func (rm *ResourceManager) accrueBusy(nm *nodeManager) {
	now := rm.eng.Now()
	if !nm.dead {
		nm.busyCoreSec += float64(nm.totalCores-nm.freeCores) * (now - nm.busyMark)
	}
	nm.busyMark = now
}

// chargeTenant attributes a finished (released or lost) container's core
// usage to its tenant, split by the hosting node's class. Containers with
// zero vcores (thin AMs) cost nothing, matching the busy-core integral.
func (rm *ResourceManager) chargeTenant(c *Container, spot bool) {
	coreSec := float64(c.Resource.VCores) * (rm.eng.Now() - c.allocAt)
	if coreSec == 0 {
		return
	}
	tc := rm.tenantCost[c.Tenant]
	if tc == nil {
		tc = &TenantCost{}
		rm.tenantCost[c.Tenant] = tc
	}
	if spot {
		tc.SpotCoreSec += coreSec
	} else {
		tc.OnDemandCoreSec += coreSec
	}
}

// finalizeNodeCost folds a departing (killed or removed) node's alive time
// and busy integral into the RM-wide sums. Must run after accrueBusy and at
// most once per node incarnation.
func (rm *ResourceManager) finalizeNodeCost(nm *nodeManager) {
	alive := rm.eng.Now() - nm.joinedAt
	if nm.spot {
		rm.spotNodeSec += alive
		rm.spotBusySec += nm.busyCoreSec
	} else {
		rm.onDemandNodeSec += alive
		rm.onDemandBusySec += nm.busyCoreSec
	}
	nm.busyCoreSec = 0
	nm.joinedAt = rm.eng.Now()
}

// AddNode registers a node that joined the cluster mid-run. spot marks it as
// a preemptible spot instance for cost accounting and chaos targeting. A
// node may rejoin under the ID of a previously killed or removed node — the
// new incarnation starts with full capacity and fresh cost accounting.
// Adding over a live registration is an error.
func (rm *ResourceManager) AddNode(nodeID string, vcores, memMB int, spot bool) error {
	if vcores <= 0 || memMB <= 0 {
		return fmt.Errorf("yarn: node %s needs positive capacity, got %d vcores / %d MB", nodeID, vcores, memMB)
	}
	i, found := rm.find(nodeID)
	if found && !rm.nodes[i].dead {
		return fmt.Errorf("yarn: node %s already registered", nodeID)
	}
	now := rm.eng.Now()
	slot := int32(-1)
	if n := rm.cl.Node(nodeID); n != nil {
		slot = n.Slot
	}
	nm := &nodeManager{
		id:         nodeID,
		slot:       slot,
		totalCores: vcores,
		totalMem:   memMB,
		freeCores:  vcores,
		freeMem:    memMB,
		spot:       spot,
		running:    make(map[int64]*Container),
		joinedAt:   now,
		busyMark:   now,
		bucket:     -1,
		allocC:     rm.nodeCounter(nodeID),
	}
	if found {
		// Dead incarnation: its cost was finalized at kill time; replace it.
		rm.nodes[i].gone = true
		rm.nodes[i] = nm
		nm.rank = i
	} else {
		rm.nodes = slices.Insert(rm.nodes, i, nm)
		rm.rerank(i)
	}
	rm.idxSync(nm)
	rm.obs.T().Instant("membership", "node-joined", nodeID)
	if rm.audit != nil {
		rm.audit.OnNodeJoined(now, nodeID, vcores, memMB)
	}
	rm.kick()
	return nil
}

// DrainNode starts a graceful decommission: the node immediately stops
// receiving allocations, running containers keep executing, and once the
// last one releases — or deadlineSec elapses, whichever comes first — onDone
// fires (asynchronously, once) with graceful reporting whether the node
// emptied in time. On deadline expiry the remaining containers are preempted
// exactly like a spot reclaim. The node itself stays registered (draining)
// until the caller removes it; strict requests pinned to it are withdrawn
// at the next allocation round.
func (rm *ResourceManager) DrainNode(nodeID string, deadlineSec float64, onDone func(node string, graceful bool)) error {
	nm := rm.node(nodeID)
	if nm == nil || nm.dead {
		return fmt.Errorf("yarn: cannot drain unknown or dead node %s", nodeID)
	}
	if nm.draining {
		return fmt.Errorf("yarn: node %s already draining", nodeID)
	}
	nm.draining = true
	rm.idxSync(nm)
	nm.drainDone = onDone
	nm.drainGen++
	gen := nm.drainGen
	now := rm.eng.Now()
	rm.obs.T().Instant("membership", "node-draining", nodeID)
	if rm.audit != nil {
		rm.audit.OnNodeDraining(now, nodeID)
	}
	if len(nm.running) == 0 {
		rm.completeDrain(nm, true)
	} else if deadlineSec > 0 {
		rm.eng.Schedule(deadlineSec, func() {
			if nm.gone || nm.dead || !nm.draining || nm.drainGen != gen || nm.drainDone == nil {
				return
			}
			rm.preemptRunning(nm)
			rm.completeDrain(nm, false)
		})
	}
	rm.kick()
	return nil
}

// completeDrain fires the drain callback once, asynchronously.
func (rm *ResourceManager) completeDrain(nm *nodeManager, graceful bool) {
	done := nm.drainDone
	if done == nil {
		return
	}
	nm.drainDone = nil
	id := nm.id
	rm.eng.Schedule(0, func() { done(id, graceful) })
}

// preemptRunning destroys a node's running containers the way a spot
// reclaim does (see loseRunning) and advances the preemption counter.
func (rm *ResourceManager) preemptRunning(nm *nodeManager) {
	rm.accrueBusy(nm)
	nm.freeCores = nm.totalCores
	nm.freeMem = nm.totalMem
	rm.idxSync(nm)
	rm.preempted += rm.loseRunning(nm, rm.preemptedC, "preempted")
}

// loseRunning takes every running container off nm, in ID order, and
// returns how many it took. The node's capacity is not credited back (it is
// dead or leaving), but each tenant's quota slot frees — the container no
// longer runs anywhere — and usage up to now is still charged, since the
// tenant occupied the cores until now. The auditor sees each container
// lost, its span ends tagged arg, count advances, and OnLost fires.
func (rm *ResourceManager) loseRunning(nm *nodeManager, count *obs.Counter, arg string) int {
	lost := make([]*Container, 0, len(nm.running))
	for _, c := range nm.running {
		lost = append(lost, c)
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].ID < lost[j].ID })
	nm.running = make(map[int64]*Container)
	for _, c := range lost {
		c.released = true
		rm.chargeTenant(c, nm.spot)
		rm.creditTenant(c)
		count.Inc()
		if rm.audit != nil {
			rm.audit.OnContainerLost(rm.eng.Now(), c)
		}
		if tr := rm.obs.T(); tr.Enabled() {
			tr.Arg(c.span, arg, "true")
			tr.End(c.span)
		}
		if c.OnLost != nil {
			rm.eng.Schedule(0, c.OnLost)
		}
	}
	return len(lost)
}

// RemoveNode deregisters a node. Running containers (if any) are preempted
// — the two-phase spot flow is notice (DrainNode) followed by RemoveNode at
// the reclaim instant, and an un-noticed hard reclaim is simply RemoveNode
// alone. Removing a dead node just deletes its bookkeeping (its containers
// were already lost at kill time). All per-node index state is deleted so
// long elastic runs stay bounded.
func (rm *ResourceManager) RemoveNode(nodeID string) error {
	i, ok := rm.find(nodeID)
	if !ok {
		return fmt.Errorf("yarn: cannot remove unknown node %s", nodeID)
	}
	nm := rm.nodes[i]
	if !nm.dead {
		rm.preemptRunning(nm)
		rm.accrueBusy(nm)
		rm.finalizeNodeCost(nm)
		nm.drainDone = nil // a pending drain callback is superseded by removal
	}
	rm.idxRemove(nm)
	nm.gone = true
	rm.nodes = slices.Delete(rm.nodes, i, i+1)
	rm.rerank(i)
	now := rm.eng.Now()
	rm.obs.T().Instant("membership", "node-removed", nodeID)
	if rm.audit != nil {
		rm.audit.OnNodeRemoved(now, nodeID)
	}
	rm.kick()
	return nil
}

// Application is one submitted app (one Hi-WAY AM per workflow).
type Application struct {
	rm *ResourceManager
	ID int
	// Tenant is the submitting tenant ("" for untenanted apps); worker
	// containers of the application count against the tenant's quota.
	Tenant string
	// AMContainer hosts the application master itself.
	AMContainer *Container
	finished    bool
	pending     []*pendingReq // queued, unallocated requests in arrival order
}

// SubmitApplication registers an untenanted application and synchronously
// allocates its AM container on the emptiest node (or a specific node if
// amNode is non-empty). It fails if no node can host the AM. The name is
// not kept: nothing reads an application by it.
func (rm *ResourceManager) SubmitApplication(_, amNode string) (*Application, error) {
	return rm.SubmitApplicationFor("", amNode)
}

// SubmitApplicationFor registers an application on behalf of a tenant. The
// tenant's policy in Config.Tenants (if any) governs the fair-share weight
// and quota cap of the application's worker containers; the AM container
// itself is exempt from the quota.
func (rm *ResourceManager) SubmitApplicationFor(tenant, amNode string) (*Application, error) {
	rm.nextApp++
	app := &Application{rm: rm, ID: rm.nextApp, Tenant: tenant}
	var nm *nodeManager
	if amNode != "" {
		cand := rm.node(amNode)
		if cand == nil || cand.dead || cand.draining {
			return nil, fmt.Errorf("yarn: AM node %q unavailable", amNode)
		}
		if !rm.cfg.AMResource.Fits(cand.freeCores, cand.freeMem) {
			return nil, fmt.Errorf("yarn: AM node %q lacks capacity for %v", amNode, rm.cfg.AMResource)
		}
		nm = cand
	} else {
		nm = rm.pickNode(rm.cfg.AMResource, nil, false)
		if nm == nil {
			return nil, fmt.Errorf("yarn: no capacity for AM container %v", rm.cfg.AMResource)
		}
	}
	app.AMContainer = rm.allocateOn(nm, app, rm.cfg.AMResource, true)
	rm.apps = append(rm.apps, app)
	return app, nil
}

// Request queues a container request; onAllocated fires (after at least one
// heartbeat) once a container is placed.
func (a *Application) Request(req Request, onAllocated func(*Container)) {
	if a.finished {
		return
	}
	if req.Resource.VCores <= 0 {
		req.Resource.VCores = 1
	}
	if req.Resource.MemMB <= 0 {
		req.Resource.MemMB = 1024
	}
	a.rm.requestsC.Inc()
	p := a.rm.newPendingReq()
	*p = pendingReq{app: a, req: req, onOK: onAllocated, at: a.rm.eng.Now()}
	a.pending = append(a.pending, p)
	a.rm.kick()
}

// PendingRequests returns the number of queued, unallocated requests for
// this application.
func (a *Application) PendingRequests() int { return len(a.pending) }

// Release returns a container's resources to its node and triggers a new
// allocation round. Releasing twice is a no-op.
func (a *Application) Release(c *Container) {
	if c == nil {
		return
	}
	if c.released {
		if a.rm.audit != nil {
			a.rm.audit.OnContainerReleased(a.rm.eng.Now(), c, true)
		}
		return
	}
	c.released = true
	a.rm.obs.T().End(c.span)
	a.rm.creditTenant(c)
	// The node is alive: a kill or a removal marks its containers released.
	nm := c.nm
	delete(nm.running, c.ID)
	a.rm.accrueBusy(nm)
	a.rm.chargeTenant(c, nm.spot)
	nm.freeCores += c.Resource.VCores + a.rm.releaseSkew
	nm.freeMem += c.Resource.MemMB
	a.rm.idxSync(nm)
	// The audit hook fires after accounting so a capacity cross-check at
	// this instant sees the post-release state.
	if a.rm.audit != nil {
		a.rm.audit.OnContainerReleased(a.rm.eng.Now(), c, false)
	}
	if nm.draining && len(nm.running) == 0 {
		a.rm.completeDrain(nm, true)
	}
	a.rm.kick()
}

// Finish releases the AM container and drops any outstanding requests.
func (a *Application) Finish() {
	if a.finished {
		return
	}
	a.finished = true
	a.pending = nil
	a.rm.apps = slices.DeleteFunc(a.rm.apps, func(b *Application) bool { return b == a })
	a.Release(a.AMContainer)
}

// kick schedules an allocation round one heartbeat from now (coalesced).
func (rm *ResourceManager) kick() {
	if rm.allocPending {
		return
	}
	rm.allocPending = true
	rm.eng.Schedule(heartbeatSec, func() {
		rm.allocPending = false
		rm.allocate()
	})
}

// allocate matches pending requests to free capacity in the round's fair
// order (see roundOrder). A strict request whose node is out of the table,
// dead or draining is withdrawn. Requests of tenants at their quota cap are
// passed over and stay pending; releasing one of the tenant's containers
// re-kicks the round.
func (rm *ResourceManager) allocate() {
	done := rm.doneScratch[:0]      // granted or withdrawn, in round order
	containers := rm.ctrScratch[:0] // done[i]'s grant, nil when withdrawn
	for _, p := range rm.roundOrder() {
		hint := rm.hinted(p)
		strict := p.req.OnUnplaceable != nil
		if strict && (hint == nil || hint.dead || hint.draining) {
			p.app = nil
			done = append(done, p)
			containers = append(containers, nil)
			continue
		}
		if rm.tenantAtCap(p.app.Tenant) {
			continue
		}
		nm := rm.pickNode(p.req.Resource, hint, strict)
		if nm == nil {
			continue
		}
		c := rm.allocateOn(nm, p.app, p.req.Resource, false)
		lat := rm.eng.Now() - p.at
		rm.allocLatH.Observe(lat)
		rm.allocLatEWMA = 0.8*rm.allocLatEWMA + 0.2*lat
		p.app = nil
		done = append(done, p)
		containers = append(containers, c)
	}
	for _, a := range rm.apps {
		kept := a.pending[:0]
		for _, p := range a.pending {
			if p.app != nil {
				kept = append(kept, p)
			}
		}
		clear(a.pending[len(kept):])
		a.pending = kept
	}
	// Callbacks after queue surgery so they can request more containers.
	for i, p := range done {
		switch c := containers[i]; {
		case c == nil:
			p.req.OnUnplaceable(p.req)
		case p.onOK != nil:
			p.onOK(c)
		}
		// The request record is unreferenced once its callback ran; recycle.
		*p = pendingReq{}
		rm.reqFree = append(rm.reqFree, p)
		done[i] = nil
		containers[i] = nil
	}
	rm.doneScratch = done[:0]
	rm.ctrScratch = containers[:0]
}

// roundOrder orders the pending requests for one allocation round. Within a
// tenant, requests interleave round-robin across applications (apps ordered
// by ID, requests within an app in arrival order). Across tenants, each
// round serves up to Weight requests per positively weighted tenant
// (tenants in name order); zero-weight (background) tenants follow after
// every weighted tenant's requests, one per round. Untenanted applications
// share the anonymous weight-1 tenant, so without tenants the order is the
// classic per-application round-robin.
func (rm *ResourceManager) roundOrder() []*pendingReq {
	var last *Application
	queued, total := 0, 0
	for _, a := range rm.apps {
		if len(a.pending) > 0 {
			last = a
			queued++
			total += len(a.pending)
		}
	}
	if queued <= 1 {
		// One application is one stream in arrival order, whatever its
		// weight: its own queue is the round.
		if last == nil {
			return nil
		}
		return last.pending
	}
	// rm.apps is in ID order, so a stable sort by tenant leaves each
	// tenant's applications in ID order.
	apps := slices.Clone(rm.apps)
	slices.SortStableFunc(apps, func(a, b *Application) int { return strings.Compare(a.Tenant, b.Tenant) })
	streams := make([]tenantStream, 0, len(apps))
	for i := 0; i < len(apps); {
		j := i + 1
		for j < len(apps) && apps[j].Tenant == apps[i].Tenant {
			j++
		}
		s := tenantStream{apps: apps[i:j], weight: rm.weight(apps[i].Tenant)}
		for _, a := range s.apps {
			s.left += len(a.pending)
		}
		streams = append(streams, s)
		i = j
	}
	out := make([]*pendingReq, 0, total)
	// Weighted tenants: up to Weight requests per tenant per round.
	for progressed := true; progressed; {
		progressed = false
		for k := range streams {
			s := &streams[k]
			for n := 0; n < s.weight && s.left > 0; n++ {
				out = append(out, s.take())
				progressed = true
			}
		}
	}
	// Background (zero-weight) tenants: whatever remains, one per round.
	for len(out) < total {
		for k := range streams {
			if s := &streams[k]; s.left > 0 {
				out = append(out, s.take())
			}
		}
	}
	return out
}

// weight is a tenant's fair-share weight, 1 for a tenant Config.Tenants
// does not name. A negative weight takes nothing per round, as 0 does.
func (rm *ResourceManager) weight(tenant string) int {
	pol, ok := rm.cfg.Tenants[tenant]
	if !ok {
		return 1
	}
	return pol.Weight
}

// tenantStream is one tenant's requests in round-robin order: every
// application's first request in ID order, then every second one, and so on.
type tenantStream struct {
	apps   []*Application // the tenant's applications, in ID order
	weight int
	left   int // requests not yet taken
	round  int // the queue position take reads
	next   int // the application take reads next
}

// take returns the stream's next request; left must be positive.
func (s *tenantStream) take() *pendingReq {
	for {
		if s.next == len(s.apps) {
			s.next = 0
			s.round++
		}
		a := s.apps[s.next]
		s.next++
		if s.round < len(a.pending) {
			s.left--
			return a.pending[s.round]
		}
	}
}

// tenantAtCap reports whether the tenant's worker-container quota is
// exhausted. Untenanted and uncapped tenants are never at cap.
func (rm *ResourceManager) tenantAtCap(tenant string) bool {
	pol, ok := rm.cfg.Tenants[tenant]
	if !ok || pol.MaxContainers <= 0 {
		return false
	}
	return rm.tenantUse[tenant] >= pol.MaxContainers
}

// creditTenant returns a worker container's quota slot to its tenant.
func (rm *ResourceManager) creditTenant(c *Container) {
	if c.AM || c.Tenant == "" {
		return
	}
	rm.tenantUse[c.Tenant]--
}

// newPendingReq takes a request record from the free list, or allocates.
func (rm *ResourceManager) newPendingReq() *pendingReq {
	if n := len(rm.reqFree); n > 0 {
		p := rm.reqFree[n-1]
		rm.reqFree[n-1] = nil
		rm.reqFree = rm.reqFree[:n-1]
		return p
	}
	return &pendingReq{}
}

// idxBucket maps a free-core count into the index range.
func (rm *ResourceManager) idxBucket(freeCores int) int {
	if freeCores < 0 {
		return 0
	}
	if n := len(rm.freeIdx); freeCores >= n {
		return n - 1
	}
	return freeCores
}

// idxSync reconciles a node's position in the free-cores index with its
// current state. Call after any change to freeCores, dead, or draining.
func (rm *ResourceManager) idxSync(nm *nodeManager) {
	want := -1
	if !nm.dead && !nm.draining {
		if nm.totalCores >= len(rm.freeIdx) {
			rm.growIdx(nm.totalCores)
		}
		want = rm.idxBucket(nm.freeCores)
	}
	if nm.bucket == want {
		return
	}
	rm.idxRemove(nm)
	nm.bucket = want
	if want >= 0 {
		nm.bucketPos = len(rm.freeIdx[want])
		rm.freeIdx[want] = append(rm.freeIdx[want], nm)
	}
}

// idxRemove unlinks a node from the free-cores index (no-op if absent).
func (rm *ResourceManager) idxRemove(nm *nodeManager) {
	if nm.bucket < 0 {
		return
	}
	b := rm.freeIdx[nm.bucket]
	last := len(b) - 1
	moved := b[last]
	b[nm.bucketPos] = moved
	moved.bucketPos = nm.bucketPos
	b[last] = nil
	rm.freeIdx[nm.bucket] = b[:last]
	nm.bucket = -1
}

// growIdx widens the index to cover nodes with more cores than any seen so
// far; existing buckets keep their contents.
func (rm *ResourceManager) growIdx(maxCores int) {
	for len(rm.freeIdx) <= maxCores {
		rm.freeIdx = append(rm.freeIdx, nil)
	}
}

// hinted returns the registered node a request's hint names, or nil. The
// node stays on the request until it leaves the table, so a request waiting
// through many rounds looks its hint up once per incarnation.
func (rm *ResourceManager) hinted(p *pendingReq) *nodeManager {
	if p.req.NodeHint == "" {
		return nil
	}
	if p.hint == nil || p.hint.gone {
		p.hint = rm.node(p.req.NodeHint)
	}
	return p.hint
}

// pickNode chooses a node for the resource. With strict placement only the
// hinted node qualifies. Otherwise the hint is preferred if it fits, then
// the node with the most free cores (ties: more free memory, then ID). The
// bucketed index narrows the search to the highest non-empty free-cores
// bucket; scanning that one bucket for the (freeMem, ID) winner keeps the
// choice identical to the old full scan over every node.
func (rm *ResourceManager) pickNode(res Resource, hint *nodeManager, strict bool) *nodeManager {
	if hint != nil && !hint.dead && !hint.draining && res.Fits(hint.freeCores, hint.freeMem) {
		return hint
	}
	if strict {
		return nil
	}
	for k := len(rm.freeIdx) - 1; k >= res.VCores; k-- {
		var best *nodeManager
		for _, nm := range rm.freeIdx[k] {
			if !res.Fits(nm.freeCores, nm.freeMem) {
				continue
			}
			if best == nil || nm.freeMem > best.freeMem ||
				(nm.freeMem == best.freeMem && nm.rank < best.rank) {
				best = nm
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

func (rm *ResourceManager) allocateOn(nm *nodeManager, app *Application, res Resource, am bool) *Container {
	rm.accrueBusy(nm)
	nm.freeCores -= res.VCores
	nm.freeMem -= res.MemMB
	rm.idxSync(nm)
	rm.nextContainer++
	c := &Container{ID: rm.nextContainer, NodeID: nm.id, Slot: nm.slot, Resource: res, Tenant: app.Tenant, AM: am, nm: nm, allocAt: rm.eng.Now()}
	if !am && app.Tenant != "" {
		rm.tenantUse[app.Tenant]++
	}
	nm.running[c.ID] = c
	rm.allocatedC.Inc()
	nm.allocC.Inc()
	if tr := rm.obs.T(); tr.Enabled() {
		c.span = tr.Begin("container", "c"+strconv.FormatInt(c.ID, 10), nm.id, 0)
		tr.ArgInt(c.span, "vcores", int64(res.VCores))
		tr.ArgInt(c.span, "memMB", int64(res.MemMB))
	}
	if rm.audit != nil {
		rm.audit.OnContainerAllocated(rm.eng.Now(), c)
	}
	return c
}

// KillNode fails a node: running containers are lost (OnLost fires), no new
// containers are placed there, and strict requests pinned to it are
// withdrawn at the next allocation round.
func (rm *ResourceManager) KillNode(nodeID string) {
	nm := rm.node(nodeID)
	if nm == nil || nm.dead {
		return
	}
	rm.accrueBusy(nm)
	rm.finalizeNodeCost(nm)
	nm.dead = true
	nm.freeCores = 0
	nm.freeMem = 0
	rm.idxSync(nm)
	if nm.drainDone != nil {
		// A crash during graceful decommission ends the drain ungracefully.
		rm.completeDrain(nm, false)
	}
	rm.killedC.Inc()
	if rm.audit != nil {
		rm.audit.OnNodeDead(rm.eng.Now(), nodeID)
	}
	rm.obs.T().Instant("fault", "node-killed", nodeID)
	rm.loseRunning(nm, rm.lostC, "lost")
	rm.kick()
}

// RunningContainers returns the number of live (allocated, unreleased)
// containers across all nodes, including AM containers — the quantity leak
// tests assert returns to zero after workflows finish.
func (rm *ResourceManager) RunningContainers() int {
	n := 0
	for _, nm := range rm.nodes {
		n += len(nm.running)
	}
	return n
}

// FreeCapacity returns the free cores and memory on a node (0,0 if dead or
// unknown).
func (rm *ResourceManager) FreeCapacity(nodeID string) (cores, memMB int) {
	nm := rm.node(nodeID)
	if nm == nil || nm.dead {
		return 0, 0
	}
	return nm.freeCores, nm.freeMem
}

// Capacity returns a node's total cores and memory (0,0 if dead or unknown).
func (rm *ResourceManager) Capacity(nodeID string) (cores, memMB int) {
	nm := rm.node(nodeID)
	if nm == nil || nm.dead {
		return 0, 0
	}
	return nm.totalCores, nm.totalMem
}

// LiveNodes returns the IDs of nodes eligible for new allocations — not
// killed, not draining, not removed — sorted.
func (rm *ResourceManager) LiveNodes() []string {
	out := make([]string, 0, len(rm.nodes))
	for _, nm := range rm.nodes {
		if !nm.dead && !nm.draining {
			out = append(out, nm.id)
		}
	}
	return out
}

// SpotNodes returns the IDs of live spot nodes that are not yet draining —
// the candidate set for a spot-market preemption notice — sorted.
func (rm *ResourceManager) SpotNodes() []string {
	out := make([]string, 0, len(rm.nodes))
	for _, nm := range rm.nodes {
		if nm.spot && !nm.dead && !nm.draining {
			out = append(out, nm.id)
		}
	}
	return out
}

// IsDraining reports whether the node is mid graceful decommission.
func (rm *ResourceManager) IsDraining(nodeID string) bool {
	nm := rm.node(nodeID)
	return nm != nil && nm.draining && !nm.dead
}

// NodeRunning returns the number of containers currently running on the
// node (0 for unknown or dead nodes).
func (rm *ResourceManager) NodeRunning(nodeID string) int {
	nm := rm.node(nodeID)
	if nm == nil || nm.dead {
		return 0
	}
	return len(nm.running)
}

// QueuedRequests returns the RM-wide count of pending, unallocated container
// requests — an autoscaling pressure signal.
func (rm *ResourceManager) QueuedRequests() int {
	n := 0
	for _, a := range rm.apps {
		n += len(a.pending)
	}
	return n
}

// Preempted returns how many running containers were preempted by node
// removal (spot reclaim or drain-deadline expiry) over the RM's lifetime.
func (rm *ResourceManager) Preempted() int { return rm.preempted }

// AllocLatencyEWMA returns an exponentially weighted moving average of
// recent request→allocation latencies in virtual seconds (0 before the
// first allocation) — an autoscaling pressure signal.
func (rm *ResourceManager) AllocLatencyEWMA() float64 { return rm.allocLatEWMA }

// TenantCost is one tenant's accumulated container usage in core-seconds,
// split by the class of node the containers ran on.
type TenantCost struct {
	OnDemandCoreSec float64 `json:"on_demand_core_sec"`
	SpotCoreSec     float64 `json:"spot_core_sec"`
}

// CostReport is a snapshot of the RM's cost accounting. Node-seconds bill
// wall-clock node lifetime by class (the cloud bill); core-seconds meter
// allocated capacity (the attribution). Conservation: the sum over tenants
// of core-seconds equals the cluster busy-core integral, per class — no
// usage is lost or double-billed, even across joins, drains, reclaims, and
// crashes.
type CostReport struct {
	OnDemandNodeSec float64               `json:"on_demand_node_sec"` // alive node-seconds, on-demand
	SpotNodeSec     float64               `json:"spot_node_sec"`      // alive node-seconds, spot
	OnDemandBusySec float64               `json:"on_demand_busy_sec"` // busy core-seconds, on-demand
	SpotBusySec     float64               `json:"spot_busy_sec"`      // busy core-seconds, spot
	Tenants         map[string]TenantCost `json:"tenants"`            // per-tenant usage ("" = untenanted apps)
}

// spotPrice is the price of a spot node-second relative to an on-demand
// node-second — the discount that makes preemptible capacity worth the churn.
const spotPrice = 0.3

// CostUnits converts the bill to abstract cost units: one unit per
// on-demand node-second, spotPrice (0.3) units per spot node-second.
func (r CostReport) CostUnits() float64 {
	return r.OnDemandNodeSec + spotPrice*r.SpotNodeSec
}

// CostReport returns the cost accounting as of now. The snapshot is pure:
// live nodes and still-running containers contribute their usage up to the
// current instant without mutating RM state.
func (rm *ResourceManager) CostReport() CostReport {
	now := rm.eng.Now()
	rep := CostReport{
		OnDemandNodeSec: rm.onDemandNodeSec,
		SpotNodeSec:     rm.spotNodeSec,
		OnDemandBusySec: rm.onDemandBusySec,
		SpotBusySec:     rm.spotBusySec,
		Tenants:         make(map[string]TenantCost, len(rm.tenantCost)),
	}
	for tn, tc := range rm.tenantCost {
		rep.Tenants[tn] = *tc
	}
	for _, nm := range rm.nodes {
		if nm.dead {
			continue // finalized at kill time
		}
		alive := now - nm.joinedAt
		busy := nm.busyCoreSec + float64(nm.totalCores-nm.freeCores)*(now-nm.busyMark)
		if nm.spot {
			rep.SpotNodeSec += alive
			rep.SpotBusySec += busy
		} else {
			rep.OnDemandNodeSec += alive
			rep.OnDemandBusySec += busy
		}
		// Iterate running containers in ID order so float accumulation is
		// identical across runs (map order would not be).
		ids := make([]int64, 0, len(nm.running))
		for cid := range nm.running {
			ids = append(ids, cid)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, cid := range ids {
			c := nm.running[cid]
			coreSec := float64(c.Resource.VCores) * (now - c.allocAt)
			if coreSec == 0 {
				continue
			}
			tc := rep.Tenants[c.Tenant]
			if nm.spot {
				tc.SpotCoreSec += coreSec
			} else {
				tc.OnDemandCoreSec += coreSec
			}
			rep.Tenants[c.Tenant] = tc
		}
	}
	return rep
}
