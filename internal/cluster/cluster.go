// Package cluster models the computational infrastructure of the paper's
// experiments: heterogeneous compute nodes (cores, memory, CPU speed, disk
// and NIC bandwidth, synthetic stress load) joined by a shared network
// switch, plus an external data source (the paper's Amazon S3 bucket) whose
// traffic bypasses the cluster switch.
//
// Each node exposes three contended resources built on sim.SharedResource:
// CPU (capacity = vcores · speed factor, work in reference core-seconds),
// disk (MB/s) and NIC (MB/s). Intra-cluster transfers are bottlenecked by
// the shared switch with a per-flow cap of min(srcNIC, dstNIC); external
// fetches are bottlenecked by the destination NIC.
package cluster

import (
	"fmt"
	"sort"

	"hiway/internal/obs"
	"hiway/internal/sim"
)

// NodeSpec describes a node's hardware and synthetic load. The paper's
// machines map to specs: local cluster nodes (24 vcores, 24 GB), EC2
// m3.large (2 vcores, 7.5 GB, SSD), c3.2xlarge (8 vcores, 15 GB, SSD).
type NodeSpec struct {
	VCores    int     // virtual processor cores
	MemMB     int     // main memory
	CPUFactor float64 // relative speed; 1.0 = reference machine
	DiskMBps  float64 // local disk bandwidth
	NetMBps   float64 // NIC bandwidth
	CPUHogs   int     // stress --cpu N: background threads competing for cores
	IOHogs    int     // stress --hdd N: background writers competing for disk
}

// Validate reports the first problem with the spec, or nil.
func (s NodeSpec) Validate() error {
	switch {
	case s.VCores <= 0:
		return fmt.Errorf("cluster: node needs positive vcores, got %d", s.VCores)
	case s.MemMB <= 0:
		return fmt.Errorf("cluster: node needs positive memory, got %d", s.MemMB)
	case s.CPUFactor <= 0:
		return fmt.Errorf("cluster: node needs positive CPU factor, got %g", s.CPUFactor)
	case s.DiskMBps <= 0:
		return fmt.Errorf("cluster: node needs positive disk bandwidth, got %g", s.DiskMBps)
	case s.NetMBps <= 0:
		return fmt.Errorf("cluster: node needs positive NIC bandwidth, got %g", s.NetMBps)
	case s.CPUHogs < 0 || s.IOHogs < 0:
		return fmt.Errorf("cluster: negative stress load")
	}
	return nil
}

// M3Large mirrors the paper's EC2 m3.large workers: 2 vcores, 7.5 GB RAM,
// 32 GB local SSD.
func M3Large() NodeSpec {
	return NodeSpec{VCores: 2, MemMB: 7680, CPUFactor: 1.0, DiskMBps: 250, NetMBps: 85}
}

// C32XLarge mirrors EC2 c3.2xlarge: 8 vcores, 15 GB RAM, 2×80 GB SSD.
func C32XLarge() NodeSpec {
	return NodeSpec{VCores: 8, MemMB: 15360, CPUFactor: 1.15, DiskMBps: 400, NetMBps: 125}
}

// XeonE52620 mirrors the local cluster nodes of §4.1: two Xeon E5-2620
// processors with 24 virtual cores, 24 GB RAM, one gigabit Ethernet.
func XeonE52620() NodeSpec {
	return NodeSpec{VCores: 24, MemMB: 24576, CPUFactor: 1.0, DiskMBps: 300, NetMBps: 120}
}

// Node is a simulated compute node.
type Node struct {
	ID   string
	Spec NodeSpec

	CPU  *sim.SharedResource // capacity: vcores·factor, units: reference core-seconds/s
	Disk *sim.SharedResource // capacity: DiskMBps
	NIC  *sim.SharedResource // capacity: NetMBps (external/volume traffic)
}

// cpuCap converts a thread count on this node into a rate cap for the CPU
// resource (threads · speed factor).
func (n *Node) cpuCap(threads int) float64 {
	if threads <= 0 {
		threads = 1
	}
	return float64(threads) * n.Spec.CPUFactor
}

// Config describes a whole cluster.
type Config struct {
	// SwitchMBps is the aggregate bandwidth of the shared switch. The
	// paper's one-gigabit switch on the 24-node cluster is ~120 MB/s per
	// link with an oversubscribed backplane.
	SwitchMBps float64
	// ExternalPerFlowMBps caps a single external (S3) fetch; the external
	// source itself is unlimited in aggregate.
	ExternalPerFlowMBps float64
}

// Cluster is a set of nodes joined by a shared switch.
type Cluster struct {
	Engine *sim.Engine
	Switch *sim.SharedResource

	cfg   Config
	nodes []*Node
	byID  map[string]*Node
	next  int      // next auto-assigned node index for AddNode("")
	ids   []string // NodeIDs result; nil after a membership change
}

// New builds a cluster with the given node specs. Node IDs are
// "node-00".."node-NN" in spec order.
func New(eng *sim.Engine, cfg Config, specs []NodeSpec) (*Cluster, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: at least one node required")
	}
	if cfg.SwitchMBps <= 0 {
		return nil, fmt.Errorf("cluster: switch bandwidth must be positive")
	}
	if cfg.ExternalPerFlowMBps <= 0 {
		cfg.ExternalPerFlowMBps = 50
	}
	c := &Cluster{
		Engine: eng,
		Switch: sim.NewSharedResource(eng, "switch", cfg.SwitchMBps),
		cfg:    cfg,
		byID:   make(map[string]*Node, len(specs)),
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		id := fmt.Sprintf("node-%02d", i)
		n := &Node{
			ID:   id,
			Spec: s,
			CPU:  sim.NewSharedResource(eng, id+"/cpu", float64(s.VCores)*s.CPUFactor),
			Disk: sim.NewSharedResource(eng, id+"/disk", s.DiskMBps),
			NIC:  sim.NewSharedResource(eng, id+"/nic", s.NetMBps),
		}
		for h := 0; h < s.CPUHogs; h++ {
			n.CPU.SubmitBackground(1 * s.CPUFactor)
		}
		for h := 0; h < s.IOHogs; h++ {
			n.Disk.SubmitBackground(s.DiskMBps)
		}
		c.nodes = append(c.nodes, n)
		c.byID[id] = n
	}
	c.next = len(specs)
	return c, nil
}

// AddNode joins a new node to the cluster mid-run. An empty id auto-assigns
// the next unused "node-NN" name; a non-empty id lets a previously removed
// node rejoin under its old identity. The node starts with fresh (idle)
// CPU/disk/NIC resources — a rejoining node is a new machine, not a resumed
// one. Returns an error if the id is already a member or the spec is invalid.
func (c *Cluster) AddNode(id string, spec NodeSpec) (*Node, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if id == "" {
		for {
			id = fmt.Sprintf("node-%02d", c.next)
			c.next++
			if c.byID[id] == nil {
				break
			}
		}
	} else if c.byID[id] != nil {
		return nil, fmt.Errorf("cluster: node %s already a member", id)
	}
	n := &Node{
		ID:   id,
		Spec: spec,
		CPU:  sim.NewSharedResource(c.Engine, id+"/cpu", float64(spec.VCores)*spec.CPUFactor),
		Disk: sim.NewSharedResource(c.Engine, id+"/disk", spec.DiskMBps),
		NIC:  sim.NewSharedResource(c.Engine, id+"/nic", spec.NetMBps),
	}
	for h := 0; h < spec.CPUHogs; h++ {
		n.CPU.SubmitBackground(1 * spec.CPUFactor)
	}
	for h := 0; h < spec.IOHogs; h++ {
		n.Disk.SubmitBackground(spec.DiskMBps)
	}
	// Keep c.nodes sorted by ID so Nodes/NodeIDs iteration order is a pure
	// function of membership, independent of join order.
	i := sort.Search(len(c.nodes), func(i int) bool { return c.nodes[i].ID >= id })
	c.nodes = append(c.nodes, nil)
	copy(c.nodes[i+1:], c.nodes[i:])
	c.nodes[i] = n
	c.byID[id] = n
	c.ids = nil
	return n, nil
}

// RemoveNode drops a node from the cluster. The caller is responsible for
// draining or killing its workload first (yarn) and for marking its replicas
// dead (hdfs); removal here only deletes the membership entry so future
// NodeIDs/Node lookups no longer see it. Returns an error for unknown ids.
func (c *Cluster) RemoveNode(id string) error {
	if c.byID[id] == nil {
		return fmt.Errorf("cluster: node %s not a member", id)
	}
	delete(c.byID, id)
	for i, m := range c.nodes {
		if m.ID == id {
			c.nodes = append(c.nodes[:i], c.nodes[i+1:]...)
			break
		}
	}
	c.ids = nil
	return nil
}

// RecordMetrics snapshots the cluster's kernel-level counters into the
// registry: the engine's event totals and queue high-water mark, plus
// per-resource fair-share recomputation (reshare) counts — the simulation
// kernel's dominant cost driver. Call it once after the run, so the gauges
// reflect final values.
func (c *Cluster) RecordMetrics(reg *obs.Registry) {
	reg.Gauge("hiway_sim_events_total", "simulation events executed").Set(float64(c.Engine.Processed()))
	reg.Gauge("hiway_sim_event_queue_max_depth", "high-water mark of the pending event queue").Set(float64(c.Engine.MaxQueueDepth()))
	reg.Gauge("hiway_sim_switch_reshares", "fair-share recomputations on the shared switch").Set(float64(c.Switch.Reshares()))
	for _, n := range c.nodes {
		total := n.CPU.Reshares() + n.Disk.Reshares() + n.NIC.Reshares()
		reg.GaugeL("hiway_sim_node_reshares", "fair-share recomputations across a node's CPU, disk, and NIC",
			"node", n.ID).Set(float64(total))
	}
}

// Uniform builds a cluster of n identical nodes.
func Uniform(eng *sim.Engine, cfg Config, n int, spec NodeSpec) (*Cluster, error) {
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = spec
	}
	return New(eng, cfg, specs)
}

// Nodes returns the nodes in ID order.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// NodeIDs returns all node IDs in order. Calls between two membership
// changes share one slice, which callers must treat as read-only; a
// membership change makes the next call build a new one, so a slice once
// returned never changes.
func (c *Cluster) NodeIDs() []string {
	if c.ids == nil {
		c.ids = make([]string, len(c.nodes))
		for i, n := range c.nodes {
			c.ids[i] = n.ID
		}
	}
	return c.ids
}

// Node looks a node up by ID, or nil.
func (c *Cluster) Node(id string) *Node { return c.byID[id] }

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Compute runs work reference-core-seconds of CPU on the node using up to
// threads cores, invoking done when finished. Background hogs and other
// tasks on the node slow it down via fair sharing.
func (c *Cluster) Compute(node *Node, work float64, threads int, done func()) *sim.Job {
	return node.CPU.Submit(work, node.cpuCap(threads), done)
}

// ReadLocal reads sizeMB from the node's local disk.
func (c *Cluster) ReadLocal(node *Node, sizeMB float64, done func()) *sim.Job {
	return node.Disk.Submit(sizeMB, 0, done)
}

// WriteLocal writes sizeMB to the node's local disk.
func (c *Cluster) WriteLocal(node *Node, sizeMB float64, done func()) *sim.Job {
	return node.Disk.Submit(sizeMB, 0, done)
}

// Transfer moves sizeMB between two distinct nodes through the shared
// switch; the flow is additionally capped by the slower of the two NICs.
// Transfers between a node and itself complete after a local disk read.
func (c *Cluster) Transfer(src, dst *Node, sizeMB float64, done func()) *sim.Job {
	if src == dst {
		return c.ReadLocal(dst, sizeMB, done)
	}
	cap := src.Spec.NetMBps
	if dst.Spec.NetMBps < cap {
		cap = dst.Spec.NetMBps
	}
	return c.Switch.Submit(sizeMB, cap, done)
}

// FetchExternal downloads sizeMB from the external source (S3) to the node.
// The flow is bottlenecked by the node NIC and the per-flow cap, and does
// not cross the cluster switch.
func (c *Cluster) FetchExternal(dst *Node, sizeMB float64, done func()) *sim.Job {
	return dst.NIC.Submit(sizeMB, c.cfg.ExternalPerFlowMBps, done)
}

// NodeMetrics is a utilization snapshot for one node, mirroring the
// uptime/iostat/ifstat measurements of the paper's Fig. 6.
type NodeMetrics struct {
	NodeID     string
	CPULoad    float64 // average runnable demand in cores (uptime-style)
	CPUUtil    float64 // fraction of CPU capacity in use
	DiskUtil   float64 // iostat-style device busy fraction
	NetMBps    float64 // average NIC throughput (external/volume traffic)
	SwitchMBps float64 // cluster-wide switch throughput (same for all nodes)
}

// Metrics returns a utilization snapshot for every node, sorted by ID.
func (c *Cluster) Metrics() []NodeMetrics {
	sw := c.Switch.Throughput()
	out := make([]NodeMetrics, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, NodeMetrics{
			NodeID:     n.ID,
			CPULoad:    n.CPU.Load() / n.Spec.CPUFactor,
			CPUUtil:    n.CPU.Utilization(),
			DiskUtil:   n.Disk.BusyFraction(),
			NetMBps:    n.NIC.Throughput(),
			SwitchMBps: sw,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NodeID < out[j].NodeID })
	return out
}
