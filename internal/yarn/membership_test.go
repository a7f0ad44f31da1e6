package yarn

import (
	"fmt"
	"testing"

	"hiway/internal/obs"
)

func TestAddNodeJoinsAndAllocates(t *testing.T) {
	eng, rm := newRM(t, 1, spec4(), Config{})
	if err := rm.AddNode("node-01", 4, 4096, true); err != nil {
		t.Fatal(err)
	}
	if got := rm.LiveNodes(); len(got) != 2 {
		t.Fatalf("live = %v, want 2 nodes", got)
	}
	if got := rm.SpotNodes(); len(got) != 1 || got[0] != "node-01" {
		t.Fatalf("spot = %v, want [node-01]", got)
	}
	if err := rm.AddNode("node-01", 4, 4096, false); err == nil {
		t.Fatal("expected error re-adding a live node")
	}
	// The new node is allocatable.
	app, err := rm.SubmitApplication("wf", "node-01")
	if err != nil {
		t.Fatal(err)
	}
	_ = app
	eng.Run()
}

func TestDrainNodeStopsAllocationsAndCompletes(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{})
	app, err := rm.SubmitApplication("wf", "node-00")
	if err != nil {
		t.Fatal(err)
	}
	var c *Container
	app.Request(pinned("node-01", Resource{VCores: 1, MemMB: 512}), func(got *Container) { c = got })
	eng.Run()
	if c == nil || c.NodeID != "node-01" {
		t.Fatalf("container = %+v, want on node-01", c)
	}

	var drained []string
	graceful := false
	// deadline 0: no forced deadline — the drain only completes when the
	// node empties (the spot-notice flow, where the market ends the drain).
	if err := rm.DrainNode("node-01", 0, func(node string, g bool) { drained = append(drained, node); graceful = g }); err != nil {
		t.Fatal(err)
	}
	if got := rm.LiveNodes(); len(got) != 1 || got[0] != "node-00" {
		t.Fatalf("live during drain = %v, want [node-00]", got)
	}
	if !rm.IsDraining("node-01") {
		t.Fatal("node-01 should be draining")
	}
	// New requests route elsewhere or wait; the draining node gets nothing.
	var c2 *Container
	app.Request(Request{Resource: Resource{VCores: 1, MemMB: 512}}, func(got *Container) { c2 = got })
	eng.Run()
	if c2 == nil || c2.NodeID != "node-00" {
		t.Fatalf("post-drain allocation on %v, want node-00", c2)
	}
	if len(drained) != 0 {
		t.Fatal("drain must not complete while the container runs")
	}
	app.Release(c)
	eng.Run()
	if len(drained) != 1 || drained[0] != "node-01" || !graceful {
		t.Fatalf("drain completion = %v graceful=%v, want [node-01] true", drained, graceful)
	}
}

func TestDrainDeadlineExpiryPreempts(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{})
	app, err := rm.SubmitApplication("wf", "node-00")
	if err != nil {
		t.Fatal(err)
	}
	var c *Container
	lost := 0
	app.Request(pinned("node-01", Resource{VCores: 1, MemMB: 512}), func(got *Container) {
		c = got
		c.OnLost = func() { lost++ }
	})
	eng.Run()
	if c == nil {
		t.Fatal("no container")
	}
	graceful := true
	done := 0
	if err := rm.DrainNode("node-01", 30, func(node string, g bool) { done++; graceful = g }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if done != 1 || graceful {
		t.Fatalf("done=%d graceful=%v, want 1 false", done, graceful)
	}
	if lost != 1 {
		t.Fatalf("OnLost fired %d times, want 1 (preempted at deadline)", lost)
	}
}

func TestDrainEmptyNodeCompletesImmediately(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{})
	done := 0
	graceful := false
	if err := rm.DrainNode("node-01", 60, func(node string, g bool) { done++; graceful = g }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if done != 1 || !graceful {
		t.Fatalf("done=%d graceful=%v, want 1 true", done, graceful)
	}
	if err := rm.DrainNode("node-01", 60, func(string, bool) {}); err == nil {
		t.Fatal("expected error draining an already-draining node")
	}
}

func TestRemoveNodePreemptsAndCleansState(t *testing.T) {
	eng, rm := newRM(t, 3, spec4(), Config{})
	app, err := rm.SubmitApplication("wf", "node-00")
	if err != nil {
		t.Fatal(err)
	}
	var c *Container
	lost := 0
	app.Request(pinned("node-02", Resource{VCores: 2, MemMB: 1024}), func(got *Container) {
		c = got
		c.OnLost = func() { lost++ }
	})
	eng.Run()
	if c == nil || c.NodeID != "node-02" {
		t.Fatalf("container = %+v, want on node-02", c)
	}
	before := rm.RegisteredNodes()
	if err := rm.RemoveNode("node-02"); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if lost != 1 {
		t.Fatalf("OnLost fired %d times, want 1", lost)
	}
	if rm.RegisteredNodes() != before-1 {
		t.Fatalf("registered = %d, want %d", rm.RegisteredNodes(), before-1)
	}
	if cores, mem := rm.FreeCapacity("node-02"); cores != 0 || mem != 0 {
		t.Fatalf("removed node capacity = %d/%d, want 0/0", cores, mem)
	}
	if err := rm.RemoveNode("node-02"); err == nil {
		t.Fatal("expected error removing an unknown node")
	}
	// Releasing the preempted container later is a harmless no-op.
	app.Release(c)
}

func TestRejoinAfterRemoveAndAfterKill(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{})
	if err := rm.RemoveNode("node-01"); err != nil {
		t.Fatal(err)
	}
	if err := rm.AddNode("node-01", 8, 8192, true); err != nil {
		t.Fatalf("rejoin after remove: %v", err)
	}
	if cores, mem := rm.FreeCapacity("node-01"); cores != 8 || mem != 8192 {
		t.Fatalf("rejoined capacity = %d/%d, want 8/8192", cores, mem)
	}
	rm.KillNode("node-01")
	if err := rm.AddNode("node-01", 4, 4096, false); err != nil {
		t.Fatalf("rejoin after kill: %v", err)
	}
	if cores, _ := rm.FreeCapacity("node-01"); cores != 4 {
		t.Fatalf("second rejoin capacity = %d, want 4", cores)
	}
	if n := rm.RegisteredNodes(); n != 2 {
		t.Fatalf("registered after two rejoins = %d, want 2", n)
	}
	eng.Run()
}

// TestChurnKeepsStateBounded is the regression test for the node-removal
// satellite: joining and leaving 1k nodes must not leak entries in the RM's
// node table.
func TestChurnKeepsStateBounded(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{})
	const churn = 1000
	for i := 0; i < churn; i++ {
		id := fmt.Sprintf("churn-%04d", i)
		if err := rm.AddNode(id, 2, 2048, i%2 == 0); err != nil {
			t.Fatal(err)
		}
		if err := rm.RemoveNode(id); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if got := rm.RegisteredNodes(); got != 2 {
		t.Fatalf("registered after churn = %d, want 2", got)
	}
	// Cost accounting must survive churn with zero busy usage.
	rep := rm.CostReport()
	if rep.OnDemandBusySec != 0 || rep.SpotBusySec != 0 {
		t.Fatalf("busy sec = %g/%g, want 0/0", rep.OnDemandBusySec, rep.SpotBusySec)
	}
}

// TestCostConservation checks the invariant the verifier audits end to end:
// summed per-tenant core-seconds equal the cluster busy-core integral, per
// node class, across allocation, release, drain preemption, and node death.
func TestCostConservation(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{Tenants: map[string]TenantPolicy{"a": {Weight: 1}}})
	if err := rm.AddNode("spot-00", 4, 4096, true); err != nil {
		t.Fatal(err)
	}
	app, err := rm.SubmitApplicationFor("a", "node-00")
	if err != nil {
		t.Fatal(err)
	}
	var c1, c2 *Container
	app.Request(pinned("node-01", Resource{VCores: 2, MemMB: 1024}), func(c *Container) { c1 = c })
	app.Request(pinned("spot-00", Resource{VCores: 2, MemMB: 1024}), func(c *Container) { c2 = c })
	eng.Run()
	if c1 == nil || c2 == nil {
		t.Fatal("containers not allocated")
	}
	eng.Schedule(100, func() { app.Release(c1) })
	eng.Schedule(150, func() { rm.RemoveNode("spot-00") }) // preempts c2
	eng.Run()
	eng.Schedule(50, func() {})
	eng.Run()

	rep := rm.CostReport()
	var tenantOnDemand, tenantSpot float64
	for _, tc := range rep.Tenants {
		tenantOnDemand += tc.OnDemandCoreSec
		tenantSpot += tc.SpotCoreSec
	}
	if diff := tenantOnDemand - rep.OnDemandBusySec; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("on-demand: tenants=%g busy=%g", tenantOnDemand, rep.OnDemandBusySec)
	}
	if diff := tenantSpot - rep.SpotBusySec; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("spot: tenants=%g busy=%g", tenantSpot, rep.SpotBusySec)
	}
	if rep.SpotNodeSec <= 0 || rep.OnDemandNodeSec <= rep.SpotNodeSec {
		t.Fatalf("node-sec = %g on-demand / %g spot: want both positive, on-demand larger", rep.OnDemandNodeSec, rep.SpotNodeSec)
	}
	if units := rep.CostUnits(); units != rep.OnDemandNodeSec+0.3*rep.SpotNodeSec {
		t.Fatalf("cost units = %g", units)
	}
}

func TestDrainReroutesStrictPending(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{})
	app, err := rm.SubmitApplication("wf", "node-00")
	if err != nil {
		t.Fatal(err)
	}
	// Fill node-01 so the strict request stays pending.
	var filler *Container
	app.Request(pinned("node-01", Resource{VCores: 4, MemMB: 3072}), func(c *Container) { filler = c })
	eng.Run()
	if filler == nil {
		t.Fatal("filler not placed")
	}
	withdrawn := 0
	app.Request(Request{Resource: Resource{VCores: 1, MemMB: 512}, NodeHint: "node-01",
		OnUnplaceable: func(Request) { withdrawn++ }}, nil)
	eng.Run()
	if err := rm.DrainNode("node-01", 1000, func(string, bool) {}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if withdrawn != 1 {
		t.Fatalf("OnUnplaceable fired %d times, want 1", withdrawn)
	}
}

// TestNodeAllocationCountersFollowMembership pins the per-node counters of
// the metrics snapshot: a node registered before SetObs, one that joins
// after it and a rejoin over a killed node each count the containers placed
// on them, and the rejoin continues its ID's counter.
func TestNodeAllocationCountersFollowMembership(t *testing.T) {
	eng, rm := newRM(t, 1, spec4(), Config{})
	o := obs.New(eng.Now)
	rm.SetObs(o)
	count := func(node string) int64 {
		return o.M().CounterL("hiway_yarn_node_containers_total", "containers allocated per node", "node", node).Value()
	}
	if err := rm.AddNode("node-01", 4, 4096, false); err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"node-00", "node-01"} {
		if _, err := rm.SubmitApplication("wf", node); err != nil {
			t.Fatal(err)
		}
	}
	rm.KillNode("node-01")
	if err := rm.AddNode("node-01", 4, 4096, false); err != nil {
		t.Fatal(err)
	}
	if _, err := rm.SubmitApplication("wf", "node-01"); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if a, b := count("node-00"), count("node-01"); a != 1 || b != 2 {
		t.Fatalf("node counters = %d, %d, want 1, 2", a, b)
	}
}

// TestTiesGoToTheLowestIDAcrossMembership pins pickNode's last tie-break
// (the lowest ID, compared as a position in the node table) through a
// removal and a rejoin at the front of the table, and the slot a container
// carries: its node's cluster slot, or -1 for a node the cluster lacks.
func TestTiesGoToTheLowestIDAcrossMembership(t *testing.T) {
	_, rm := newRM(t, 4, spec4(), Config{})
	if err := rm.RemoveNode("node-00"); err != nil {
		t.Fatal(err)
	}
	if err := rm.AddNode("node-00", 4, 4096, false); err != nil {
		t.Fatal(err)
	}
	if err := rm.AddNode("spot-00", 4, 4096, true); err != nil {
		t.Fatal(err)
	}
	// Each AM takes a core, so the next one goes to the next idle node.
	for _, want := range []struct {
		node string
		slot int32
	}{{"node-00", 0}, {"node-01", 1}, {"node-02", 2}, {"node-03", 3}, {"spot-00", -1}} {
		app, err := rm.SubmitApplication("wf", "")
		if err != nil {
			t.Fatal(err)
		}
		if c := app.AMContainer; c.NodeID != want.node || c.Slot != want.slot {
			t.Fatalf("AM on %s (slot %d), want %s (slot %d): ties go to the lowest ID", c.NodeID, c.Slot, want.node, want.slot)
		}
	}
}
