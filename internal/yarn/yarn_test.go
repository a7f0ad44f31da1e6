package yarn

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hiway/internal/cluster"
	"hiway/internal/sim"
)

func newRM(t *testing.T, nodes int, spec cluster.NodeSpec, cfg Config) (*sim.Engine, *ResourceManager) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 1000}, nodes, spec)
	if err != nil {
		t.Fatal(err)
	}
	return eng, NewResourceManager(eng, c, cfg)
}

func spec4() cluster.NodeSpec {
	return cluster.NodeSpec{VCores: 4, MemMB: 4096, CPUFactor: 1, DiskMBps: 100, NetMBps: 100}
}

// pinned is a strict request for res on node whose withdrawal the test
// does not watch.
func pinned(node string, res Resource) Request {
	return Request{Resource: res, NodeHint: node, OnUnplaceable: func(Request) {}}
}

func TestSubmitApplicationAllocatesAM(t *testing.T) {
	_, rm := newRM(t, 2, spec4(), Config{})
	app, err := rm.SubmitApplication("wf", "")
	if err != nil {
		t.Fatal(err)
	}
	if app.AMContainer == nil || app.AMContainer.NodeID == "" {
		t.Fatal("AM container not allocated")
	}
	cores, mem := rm.FreeCapacity(app.AMContainer.NodeID)
	if cores != 3 || mem != 4096-1024 {
		t.Fatalf("free after AM = %d cores %d MB", cores, mem)
	}
}

func TestSubmitApplicationOnSpecificNode(t *testing.T) {
	_, rm := newRM(t, 3, spec4(), Config{})
	app, err := rm.SubmitApplication("wf", "node-02")
	if err != nil {
		t.Fatal(err)
	}
	if app.AMContainer.NodeID != "node-02" {
		t.Fatalf("AM on %s, want node-02", app.AMContainer.NodeID)
	}
	if _, err := rm.SubmitApplication("wf2", "node-99"); err == nil {
		t.Fatal("expected error for unknown AM node")
	}
}

func TestSubmitApplicationNoCapacity(t *testing.T) {
	_, rm := newRM(t, 1, cluster.NodeSpec{VCores: 1, MemMB: 512, CPUFactor: 1, DiskMBps: 1, NetMBps: 1}, Config{})
	if _, err := rm.SubmitApplication("wf", ""); err == nil {
		t.Fatal("expected error: node too small for default AM container")
	}
}

func TestZeroVCoreAM(t *testing.T) {
	// A zero-vcore AM (thin JVM) must not block a full-node task
	// container on the same node.
	eng, rm := newRM(t, 1, spec4(), Config{AMResource: Resource{VCores: 0, MemMB: 512}})
	app, err := rm.SubmitApplication("wf", "node-00")
	if err != nil {
		t.Fatal(err)
	}
	if app.AMContainer.Resource.VCores != 0 {
		t.Fatalf("AM resource = %+v", app.AMContainer.Resource)
	}
	cores, mem := rm.FreeCapacity("node-00")
	if cores != 4 || mem != 4096-512 {
		t.Fatalf("free = %d cores %d MB", cores, mem)
	}
	var got *Container
	app.Request(Request{Resource: Resource{VCores: 4, MemMB: 3500}}, func(c *Container) { got = c })
	eng.Run()
	if got == nil {
		t.Fatal("full-node container should fit beside the zero-vcore AM")
	}
}

func TestRequestAllocatesAfterHeartbeat(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{})
	app, _ := rm.SubmitApplication("wf", "")
	var got *Container
	var at float64
	app.Request(Request{Resource: Resource{VCores: 1, MemMB: 1024}}, func(c *Container) {
		got = c
		at = eng.Now()
	})
	eng.Run()
	if got == nil {
		t.Fatal("container not allocated")
	}
	if at < heartbeatSec {
		t.Fatalf("allocated at %g, want >= heartbeat %g", at, heartbeatSec)
	}
}

func TestRequestDefaultsZeroResource(t *testing.T) {
	eng, rm := newRM(t, 1, spec4(), Config{})
	app, _ := rm.SubmitApplication("wf", "")
	var got *Container
	app.Request(Request{}, func(c *Container) { got = c })
	eng.Run()
	if got == nil || got.Resource.VCores != 1 || got.Resource.MemMB != 1024 {
		t.Fatalf("defaulted container = %+v", got)
	}
}

func TestRequestsQueueWhenFull(t *testing.T) {
	eng, rm := newRM(t, 1, spec4(), Config{})
	app, _ := rm.SubmitApplication("wf", "") // uses 1 core, leaves 3
	res := Resource{VCores: 3, MemMB: 1024}
	var first, second *Container
	app.Request(Request{Resource: res}, func(c *Container) { first = c })
	app.Request(Request{Resource: res}, func(c *Container) { second = c })
	eng.RunUntil(10)
	if first == nil {
		t.Fatal("first request should be satisfied")
	}
	if second != nil {
		t.Fatal("second request should wait: node is full")
	}
	if app.PendingRequests() != 1 {
		t.Fatalf("pending = %d, want 1", app.PendingRequests())
	}
	app.Release(first)
	eng.Run()
	if second == nil {
		t.Fatal("second request should be satisfied after release")
	}
}

func TestStrictPlacementWaitsForNode(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{})
	app, _ := rm.SubmitApplication("wf", "node-00")
	// Fill node-01 completely.
	var filler *Container
	app.Request(pinned("node-01", Resource{VCores: 4, MemMB: 4096}),
		func(c *Container) { filler = c })
	eng.RunUntil(5)
	if filler == nil || filler.NodeID != "node-01" {
		t.Fatalf("filler = %+v", filler)
	}
	var strictC *Container
	app.Request(pinned("node-01", Resource{VCores: 1, MemMB: 512}),
		func(c *Container) { strictC = c })
	eng.RunUntil(10)
	if strictC != nil {
		t.Fatal("strict request must wait for the hinted node even with capacity elsewhere")
	}
	app.Release(filler)
	eng.Run()
	if strictC == nil || strictC.NodeID != "node-01" {
		t.Fatalf("strict request not satisfied on hinted node: %+v", strictC)
	}
}

func TestRelaxedHintFallsBack(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{})
	app, _ := rm.SubmitApplication("wf", "node-00")
	var filler *Container
	app.Request(pinned("node-01", Resource{VCores: 4, MemMB: 4096}),
		func(c *Container) { filler = c })
	eng.RunUntil(5)
	var got *Container
	app.Request(Request{Resource: Resource{VCores: 1, MemMB: 512}, NodeHint: "node-01"},
		func(c *Container) { got = c })
	eng.Run()
	if got == nil || got.NodeID != "node-00" {
		t.Fatalf("relaxed hint should fall back to another node, got %+v", got)
	}
	_ = filler
}

func TestReleaseIdempotent(t *testing.T) {
	eng, rm := newRM(t, 1, spec4(), Config{})
	app, _ := rm.SubmitApplication("wf", "")
	var c *Container
	app.Request(Request{Resource: Resource{VCores: 1, MemMB: 512}}, func(x *Container) { c = x })
	eng.Run()
	app.Release(c)
	app.Release(c) // must not double-free
	cores, _ := rm.FreeCapacity("node-00")
	if cores != 3 { // 4 - AM(1)
		t.Fatalf("free cores = %d, want 3", cores)
	}
}

func TestFinishDropsPendingAndReleasesAM(t *testing.T) {
	eng, rm := newRM(t, 1, spec4(), Config{})
	app, _ := rm.SubmitApplication("wf", "")
	fired := false
	app.Request(Request{Resource: Resource{VCores: 64, MemMB: 512}}, func(*Container) { fired = true })
	app.Finish()
	eng.Run()
	if fired {
		t.Fatal("pending request fired after Finish")
	}
	cores, mem := rm.FreeCapacity("node-00")
	if cores != 4 || mem != 4096 {
		t.Fatalf("capacity not fully restored: %d cores %d MB", cores, mem)
	}
	// Requests after Finish are ignored.
	app.Request(Request{}, func(*Container) { fired = true })
	eng.Run()
	if fired {
		t.Fatal("request after Finish fired")
	}
}

func TestKillNodeNotifiesAndReallocates(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{})
	app, _ := rm.SubmitApplication("wf", "node-00")
	var c *Container
	app.Request(pinned("node-01", Resource{VCores: 1, MemMB: 512}),
		func(x *Container) { c = x })
	eng.Run()
	lost := false
	c.OnLost = func() { lost = true }
	rm.KillNode("node-01")
	eng.Run()
	if !lost {
		t.Fatal("OnLost not fired")
	}
	if got := rm.LiveNodes(); len(got) != 1 || got[0] != "node-00" {
		t.Fatalf("live nodes = %v", got)
	}
	// New allocation lands on the surviving node.
	var c2 *Container
	app.Request(Request{Resource: Resource{VCores: 1, MemMB: 512}}, func(x *Container) { c2 = x })
	eng.Run()
	if c2 == nil || c2.NodeID != "node-00" {
		t.Fatalf("post-crash container = %+v", c2)
	}
}

func TestKillNodeTwiceHarmless(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{})
	rm.KillNode("node-01")
	rm.KillNode("node-01")
	rm.KillNode("node-77")
	eng.Run()
	if len(rm.LiveNodes()) != 1 {
		t.Fatalf("live = %v", rm.LiveNodes())
	}
}

func TestAllocationPrefersEmptiestNode(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{})
	app, _ := rm.SubmitApplication("wf", "node-00") // node-00 now has 3 free cores
	var got *Container
	app.Request(Request{Resource: Resource{VCores: 1, MemMB: 512}}, func(c *Container) { got = c })
	eng.Run()
	if got.NodeID != "node-01" {
		t.Fatalf("allocated on %s, want emptiest node-01", got.NodeID)
	}
}

func TestManyContainersAcrossNodes(t *testing.T) {
	eng, rm := newRM(t, 4, spec4(), Config{})
	app, _ := rm.SubmitApplication("wf", "node-00")
	nodes := map[string]int{}
	count := 0
	for i := 0; i < 15; i++ { // 16 total cores - 1 AM = 15
		app.Request(Request{Resource: Resource{VCores: 1, MemMB: 256}}, func(c *Container) {
			nodes[c.NodeID]++
			count++
		})
	}
	eng.Run()
	if count != 15 {
		t.Fatalf("allocated %d containers, want 15", count)
	}
	if len(nodes) != 4 {
		t.Fatalf("containers should spread over all nodes: %v", nodes)
	}
	if rm.nextContainer != 16 { // incl. AM
		t.Fatalf("allocated %d containers in all, want 16", rm.nextContainer)
	}
}

func TestFairSharingInterleavesApps(t *testing.T) {
	// One node with 4 free cores after two AMs; app1 floods the queue
	// before app2 submits a single request. Fair sharing serves app2 in
	// the first round.
	eng, rm := newRM(t, 1, cluster.NodeSpec{VCores: 6, MemMB: 8192, CPUFactor: 1, DiskMBps: 1, NetMBps: 1}, Config{})
	app1, _ := rm.SubmitApplication("big", "")
	app2, _ := rm.SubmitApplication("small", "")
	res := Resource{VCores: 1, MemMB: 512}
	for i := 0; i < 8; i++ {
		app1.Request(Request{Resource: res}, func(c *Container) {})
	}
	app2Got := false
	app2.Request(Request{Resource: res}, func(*Container) { app2Got = true })
	// One allocation round: 4 containers fit (6 cores - 2 AMs).
	eng.RunUntil(0.3)
	if !app2Got {
		t.Fatal("fair sharing should serve app2 within the first round")
	}
}

// roundOf queues each request, in arrival order, on the first application
// given with its ID and returns an RM's order for one allocation round over
// those applications.
func roundOf(pending []*pendingReq, tenants map[string]TenantPolicy) []*pendingReq {
	rm := &ResourceManager{cfg: Config{Tenants: tenants}}
	for _, p := range pending {
		i := slices.IndexFunc(rm.apps, func(a *Application) bool { return a.ID == p.app.ID })
		if i < 0 {
			i = len(rm.apps)
			rm.apps = append(rm.apps, p.app)
		}
		rm.apps[i].pending = append(rm.apps[i].pending, p)
	}
	slices.SortFunc(rm.apps, func(a, b *Application) int { return a.ID - b.ID })
	return rm.roundOrder()
}

func TestFairOrderRoundRobin(t *testing.T) {
	a1 := &Application{ID: 1}
	a2 := &Application{ID: 2}
	mk := func(app *Application) *pendingReq { return &pendingReq{app: app} }
	pending := []*pendingReq{mk(a1), mk(a1), mk(a1), mk(a2), mk(a2)}
	got := roundOf(pending, nil)
	wantApps := []int{1, 2, 1, 2, 1}
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
	for i, w := range wantApps {
		if got[i].app.ID != w {
			t.Fatalf("position %d: app %d, want %d", i, got[i].app.ID, w)
		}
	}
}

// TestFairOrderTenantTable pins the tenant-weighted ordering contract with
// table-driven edge cases: weighted interleave, the single-tenant degenerate
// case (plain per-app round-robin), and zero-weight background tenants
// ordered strictly after every weighted tenant's requests.
func TestFairOrderTenantTable(t *testing.T) {
	app := func(id int, tenant string) *Application { return &Application{ID: id, Tenant: tenant} }
	cases := []struct {
		name    string
		tenants map[string]TenantPolicy
		reqs    []*Application // one pending request per entry, arrival order
		want    []int          // expected app IDs in fair order
	}{
		{
			name:    "single tenant degenerates to per-app round-robin",
			tenants: map[string]TenantPolicy{"acme": {Weight: 3}},
			reqs: []*Application{
				app(1, "acme"), app(1, "acme"), app(2, "acme"), app(2, "acme"), app(1, "acme"),
			},
			want: []int{1, 2, 1, 2, 1},
		},
		{
			name:    "weight 2 tenant gets two slots per round",
			tenants: map[string]TenantPolicy{"big": {Weight: 2}, "small": {Weight: 1}},
			reqs: []*Application{
				app(1, "big"), app(1, "big"), app(1, "big"), app(1, "big"),
				app(2, "small"), app(2, "small"),
			},
			want: []int{1, 1, 2, 1, 1, 2},
		},
		{
			name:    "unconfigured tenants default to weight 1",
			tenants: nil,
			reqs: []*Application{
				app(1, "a"), app(1, "a"), app(2, "b"), app(2, "b"),
			},
			want: []int{1, 2, 1, 2},
		},
		{
			name:    "zero-weight tenant is ordered after all weighted requests",
			tenants: map[string]TenantPolicy{"bg": {Weight: 0}, "fg": {Weight: 1}},
			reqs: []*Application{
				app(1, "bg"), app(1, "bg"), app(2, "fg"), app(2, "fg"),
			},
			want: []int{2, 2, 1, 1},
		},
		{
			name:    "negative weight treated as background",
			tenants: map[string]TenantPolicy{"neg": {Weight: -1}, "fg": {Weight: 1}},
			reqs: []*Application{
				app(1, "neg"), app(2, "fg"),
			},
			want: []int{2, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var pending []*pendingReq
			for _, a := range tc.reqs {
				pending = append(pending, &pendingReq{app: a})
			}
			got := roundOf(pending, tc.tenants)
			if len(got) != len(tc.want) {
				t.Fatalf("len = %d, want %d", len(got), len(tc.want))
			}
			for i, w := range tc.want {
				if got[i].app.ID != w {
					ids := make([]int, len(got))
					for j, p := range got {
						ids[j] = p.app.ID
					}
					t.Fatalf("order %v, want %v", ids, tc.want)
				}
			}
		})
	}
}

// TestTenantQuotaCap exercises the hard quota path end to end: a capped
// tenant never holds more than MaxContainers worker containers at any
// instant, even with idle cluster capacity, and a queued request is served
// as soon as a slot frees.
func TestTenantQuotaCap(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{
		Tenants: map[string]TenantPolicy{"capped": {Weight: 1, MaxContainers: 2}},
	})
	appc, err := rm.SubmitApplicationFor("capped", "")
	if err != nil {
		t.Fatal(err)
	}
	res := Resource{VCores: 1, MemMB: 512}
	var got []*Container
	for i := 0; i < 4; i++ {
		appc.Request(Request{Resource: res}, func(c *Container) { got = append(got, c) })
	}
	eng.RunUntil(1)
	if len(got) != 2 {
		t.Fatalf("allocated %d containers, want quota cap 2", len(got))
	}
	if n := rm.TenantContainers("capped"); n != 2 {
		t.Fatalf("TenantContainers = %d, want 2", n)
	}
	// Releasing one frees a quota slot; the pending request is served on the
	// next heartbeat.
	appc.Release(got[0])
	eng.RunUntil(2)
	if len(got) != 3 {
		t.Fatalf("allocated %d containers after release, want 3", len(got))
	}
	if n := rm.TenantContainers("capped"); n != 2 {
		t.Fatalf("TenantContainers after release = %d, want 2", n)
	}
}

// TestTenantQuotaAllExhaustedFallback covers the all-quota-exhausted round:
// when every pending request belongs to a tenant at its cap, the allocation
// round allocates nothing and keeps the queue intact — and an uncapped
// tenant's requests still flow around the stalled ones.
func TestTenantQuotaAllExhaustedFallback(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{
		Tenants: map[string]TenantPolicy{
			"a": {Weight: 1, MaxContainers: 1},
			"b": {Weight: 1, MaxContainers: 1},
		},
	})
	appa, err := rm.SubmitApplicationFor("a", "")
	if err != nil {
		t.Fatal(err)
	}
	appb, err := rm.SubmitApplicationFor("b", "")
	if err != nil {
		t.Fatal(err)
	}
	res := Resource{VCores: 1, MemMB: 512}
	allocated := 0
	for i := 0; i < 3; i++ {
		appa.Request(Request{Resource: res}, func(*Container) { allocated++ })
		appb.Request(Request{Resource: res}, func(*Container) { allocated++ })
	}
	eng.RunUntil(1)
	if allocated != 2 {
		t.Fatalf("allocated %d, want one per capped tenant", allocated)
	}
	if n := appa.PendingRequests() + appb.PendingRequests(); n != 4 {
		t.Fatalf("pending = %d, want 4 kept while both tenants at cap", n)
	}
	// A third, uncapped tenant is not blocked by the exhausted ones.
	appc, err := rm.SubmitApplicationFor("c", "")
	if err != nil {
		t.Fatal(err)
	}
	cGot := 0
	appc.Request(Request{Resource: res}, func(*Container) { cGot++ })
	eng.RunUntil(2)
	if cGot != 1 {
		t.Fatalf("uncapped tenant got %d containers, want 1", cGot)
	}
}

// TestFairAllocationAppFinishMidRound covers an application finishing from
// inside an allocation callback of the same round: its remaining pending
// requests are dropped, later rounds never serve them, and the AM container
// frees its resources without disturbing the sibling tenant.
func TestFairAllocationAppFinishMidRound(t *testing.T) {
	eng, rm := newRM(t, 1, cluster.NodeSpec{VCores: 6, MemMB: 8192, CPUFactor: 1, DiskMBps: 1, NetMBps: 1},
		Config{Tenants: map[string]TenantPolicy{"a": {Weight: 1}, "b": {Weight: 1}}})
	app1, err := rm.SubmitApplicationFor("a", "")
	if err != nil {
		t.Fatal(err)
	}
	app2, err := rm.SubmitApplicationFor("b", "")
	if err != nil {
		t.Fatal(err)
	}
	res := Resource{VCores: 1, MemMB: 512}
	var app1Got, app2Got int
	for i := 0; i < 5; i++ {
		app1.Request(Request{Resource: res}, func(*Container) {
			app1Got++
			if app1Got == 1 {
				app1.Finish() // finish mid-round, with requests still queued
			}
		})
	}
	for i := 0; i < 2; i++ {
		app2.Request(Request{Resource: res}, func(*Container) { app2Got++ })
	}
	// Round 1 fits 4 workers (6 cores - 2 AMs); fair order interleaves
	// a,b,a,b, so both apps land 2 each before app1 finishes dropping its
	// 3 still-pending requests.
	eng.Run()
	if app1Got != 2 {
		t.Fatalf("app1 allocations = %d, want 2 (round-1 allocations only)", app1Got)
	}
	if app2Got != 2 {
		t.Fatalf("app2 allocations = %d, want 2", app2Got)
	}
	if n := app1.PendingRequests(); n != 0 {
		t.Fatalf("app1 pending = %d, want 0 after mid-round Finish", n)
	}
	// app1's AM core is back; the sibling tenant can still allocate.
	app2.Request(Request{Resource: res}, func(*Container) { app2Got++ })
	eng.Run()
	if app2Got != 3 {
		t.Fatalf("app2 allocations after AM release = %d, want 3", app2Got)
	}
}

func TestRequestFromAllocationCallback(t *testing.T) {
	eng, rm := newRM(t, 1, spec4(), Config{})
	app, _ := rm.SubmitApplication("wf", "")
	var chain int
	var recurse func(c *Container)
	recurse = func(c *Container) {
		chain++
		app.Release(c)
		if chain < 3 {
			app.Request(Request{Resource: Resource{VCores: 1, MemMB: 256}}, recurse)
		}
	}
	app.Request(Request{Resource: Resource{VCores: 1, MemMB: 256}}, recurse)
	eng.Run()
	if chain != 3 {
		t.Fatalf("chained allocations = %d, want 3", chain)
	}
}

func TestKillNodeWithdrawsStrictRequestsViaOnUnplaceable(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{})
	app, _ := rm.SubmitApplication("wf", "node-00")
	var filler *Container
	app.Request(pinned("node-01", Resource{VCores: 4, MemMB: 4096}),
		func(c *Container) { filler = c })
	eng.RunUntil(5)
	if filler == nil {
		t.Fatal("filler not allocated")
	}
	allocated := false
	var withdrawn []Request
	app.Request(Request{
		Resource: Resource{VCores: 1, MemMB: 512}, NodeHint: "node-01",
		OnUnplaceable: func(req Request) { withdrawn = append(withdrawn, req) },
	}, func(*Container) { allocated = true })
	eng.RunUntil(10)
	rm.KillNode("node-01")
	eng.Run()
	if allocated {
		t.Fatal("withdrawn request must not allocate")
	}
	if len(withdrawn) != 1 {
		t.Fatalf("OnUnplaceable fired %d times, want 1", len(withdrawn))
	}
	if withdrawn[0].NodeHint != "node-01" {
		t.Fatalf("withdrawn request = %+v", withdrawn[0])
	}
	if app.PendingRequests() != 0 {
		t.Fatalf("pending = %d, want 0 after withdrawal", app.PendingRequests())
	}
}

// TestStrictRequestOnGoneNodeIsWithdrawn makes a strict request after its
// node was killed, drained or removed. Nothing re-reads it at that moment,
// so the allocation round one heartbeat later must withdraw it; it never
// allocates. The application's tenant is at its quota cap, which must not
// hold the withdrawal back.
func TestStrictRequestOnGoneNodeIsWithdrawn(t *testing.T) {
	for _, tc := range []struct {
		name  string
		leave func(rm *ResourceManager) error
	}{
		{"killed", func(rm *ResourceManager) error { rm.KillNode("node-01"); return nil }},
		{"drained", func(rm *ResourceManager) error { return rm.DrainNode("node-01", 0, func(string, bool) {}) }},
		{"removed", func(rm *ResourceManager) error { return rm.RemoveNode("node-01") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, rm := newRM(t, 2, spec4(), Config{Tenants: map[string]TenantPolicy{"t": {Weight: 1, MaxContainers: 1}}})
			app, _ := rm.SubmitApplicationFor("t", "node-00")
			app.Request(Request{Resource: Resource{VCores: 1, MemMB: 512}, NodeHint: "node-00"}, func(*Container) {})
			if err := tc.leave(rm); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if rm.TenantContainers("t") != 1 {
				t.Fatalf("tenant holds %d containers, want its cap of 1", rm.TenantContainers("t"))
			}
			at := eng.Now()
			allocated := false
			var withdrawnAt []float64
			app.Request(Request{
				Resource: Resource{VCores: 1, MemMB: 512}, NodeHint: "node-01",
				OnUnplaceable: func(Request) { withdrawnAt = append(withdrawnAt, eng.Now()) },
			}, func(*Container) { allocated = true })
			eng.Run()
			if allocated {
				t.Fatal("a request pinned to a gone node allocated")
			}
			if len(withdrawnAt) != 1 || withdrawnAt[0] != at+heartbeatSec {
				t.Fatalf("withdrawn at %v, want once at %g", withdrawnAt, at+heartbeatSec)
			}
			if n := app.PendingRequests(); n != 0 {
				t.Fatalf("pending = %d, want 0 after withdrawal", n)
			}
		})
	}
}

func TestKillNodeLeavesOtherStrictRequestsPinned(t *testing.T) {
	// Strict requests pinned to a *surviving* node keep their pin when an
	// unrelated node dies.
	eng, rm := newRM(t, 3, spec4(), Config{})
	app, _ := rm.SubmitApplication("wf", "node-00")
	var filler *Container
	app.Request(pinned("node-01", Resource{VCores: 4, MemMB: 4096}),
		func(c *Container) { filler = c })
	eng.RunUntil(5)
	var got *Container
	app.Request(pinned("node-01", Resource{VCores: 1, MemMB: 512}),
		func(c *Container) { got = c })
	eng.RunUntil(10)
	rm.KillNode("node-02")
	eng.RunUntil(20)
	if got != nil {
		t.Fatalf("strict pin to node-01 violated: landed on %s", got.NodeID)
	}
	app.Release(filler)
	eng.Run()
	if got == nil || got.NodeID != "node-01" {
		t.Fatalf("strict request not satisfied on its pinned node: %+v", got)
	}
}

func TestRunningContainersAccounting(t *testing.T) {
	eng, rm := newRM(t, 2, spec4(), Config{})
	app, _ := rm.SubmitApplication("wf", "node-00")
	if rm.RunningContainers() != 1 { // the AM
		t.Fatalf("RunningContainers = %d, want 1", rm.RunningContainers())
	}
	var c *Container
	app.Request(Request{Resource: Resource{VCores: 1, MemMB: 512}}, func(x *Container) { c = x })
	eng.Run()
	if rm.RunningContainers() != 2 {
		t.Fatalf("RunningContainers = %d, want 2", rm.RunningContainers())
	}
	app.Release(c)
	app.Finish()
	eng.Run()
	if rm.RunningContainers() != 0 {
		t.Fatalf("RunningContainers = %d, want 0 after finish", rm.RunningContainers())
	}
}

// groupedOrder is the reference for roundOrder: the order computed from one
// RM-wide list of pending requests in arrival order, grouped per round
// through a map of per-tenant maps.
func groupedOrder(pending []*pendingReq, tenants map[string]TenantPolicy) []*pendingReq {
	// Group by tenant, then flatten each tenant into its own
	// per-application round-robin stream.
	perTenant := make(map[string]map[int][]*pendingReq)
	var names []string
	for _, p := range pending {
		tn := p.app.Tenant
		apps, ok := perTenant[tn]
		if !ok {
			apps = make(map[int][]*pendingReq)
			perTenant[tn] = apps
			names = append(names, tn)
		}
		apps[p.app.ID] = append(apps[p.app.ID], p)
	}
	sort.Strings(names)
	streams := make(map[string][]*pendingReq, len(names))
	for tn, apps := range perTenant {
		ids := make([]int, 0, len(apps))
		total := 0
		for id, q := range apps {
			ids = append(ids, id)
			total += len(q)
		}
		sort.Ints(ids)
		s := make([]*pendingReq, 0, total)
		for round := 0; len(s) < total; round++ {
			for _, id := range ids {
				if q := apps[id]; round < len(q) {
					s = append(s, q[round])
				}
			}
		}
		streams[tn] = s
	}
	weight := func(tn string) int {
		pol, ok := tenants[tn]
		if !ok {
			return 1
		}
		if pol.Weight < 0 {
			return 0
		}
		return pol.Weight
	}
	out := make([]*pendingReq, 0, len(pending))
	idx := make(map[string]int, len(names))
	// Weighted tenants: up to Weight requests per tenant per round.
	for {
		progressed := false
		for _, tn := range names {
			w := weight(tn)
			for k := 0; k < w && idx[tn] < len(streams[tn]); k++ {
				out = append(out, streams[tn][idx[tn]])
				idx[tn]++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	// Background (zero-weight) tenants: whatever remains, one per round.
	for len(out) < len(pending) {
		for _, tn := range names {
			if idx[tn] < len(streams[tn]) {
				out = append(out, streams[tn][idx[tn]])
				idx[tn]++
			}
		}
	}
	return out
}

// TestRoundOrderMatchesFlatGrouping drives roundOrder differentially against
// the flat-list reference on seeded rounds: one to five applications with
// increasing, gapped IDs, spread over tenants of weight 0 (two of them), 1
// and 3 and one the tenant table does not know, with and without the
// table. Every tenth round has 13 to 20 applications, enough for the sort
// by tenant to be more than an insertion sort. Requests arrive interleaved
// across applications, and an application may have none queued. Where one
// application holds every request, roundOrder must return that
// application's own queue, nothing built.
func TestRoundOrderMatchesFlatGrouping(t *testing.T) {
	tenants := map[string]TenantPolicy{"v0": {Weight: 0}, "w0": {Weight: 0}, "w1": {Weight: 1}, "w3": {Weight: 3}}
	names := []string{"v0", "w0", "w1", "w3", "unknown"}
	rng := rand.New(rand.NewSource(7))
	oneApp, multi := 0, 0
	for seed := 0; seed < 400; seed++ {
		apps := make([]*Application, 1+rng.Intn(5))
		if seed%10 == 9 {
			apps = make([]*Application, 13+rng.Intn(8))
		}
		id := 0
		for i := range apps {
			id += 1 + rng.Intn(3)
			apps[i] = &Application{ID: id, Tenant: names[rng.Intn(len(names))]}
		}
		arrivals := make([]int, rng.Intn(6*len(apps)))
		for i := range arrivals {
			arrivals[i] = rng.Intn(len(apps))
		}
		for _, tab := range []map[string]TenantPolicy{tenants, nil} {
			rm := &ResourceManager{cfg: Config{Tenants: tab}, apps: apps}
			var flat []*pendingReq
			for _, a := range apps {
				a.pending = nil
			}
			for _, k := range arrivals {
				p := &pendingReq{app: apps[k]}
				flat = append(flat, p)
				apps[k].pending = append(apps[k].pending, p)
			}
			got := rm.roundOrder()
			if want := groupedOrder(flat, tab); !slices.Equal(got, want) {
				t.Fatalf("seed %d (%d apps, %d requests): roundOrder and the flat grouping disagree", seed, len(apps), len(flat))
			}
			switch queued := slices.IndexFunc(apps, func(a *Application) bool { return len(a.pending) == len(flat) }); {
			case len(flat) == 0:
			case queued >= 0:
				oneApp++
				if &got[0] != &apps[queued].pending[0] {
					t.Fatalf("seed %d: one application's round was rebuilt instead of read in place", seed)
				}
			default:
				multi++
			}
		}
	}
	if oneApp < 150 || multi < 300 {
		t.Fatalf("only %d one-application and %d multi-application rounds exercised", oneApp, multi)
	}
}

// auditLog counts the containers the audit hook saw allocated and not yet
// released or lost.
type auditLog struct{ running int }

func (l *auditLog) OnContainerAllocated(float64, *Container) { l.running++ }
func (l *auditLog) OnContainerReleased(_ float64, _ *Container, double bool) {
	if !double {
		l.running--
	}
}
func (l *auditLog) OnContainerLost(float64, *Container)    { l.running-- }
func (l *auditLog) OnNodeDead(float64, string)             {}
func (l *auditLog) OnNodeJoined(float64, string, int, int) {}
func (l *auditLog) OnNodeDraining(float64, string)         {}
func (l *auditLog) OnNodeRemoved(float64, string)          {}

// openReq is the test's own record of one request: when it was made, the
// node a strict request is pinned to ("" for any other), and whether it is
// closed (granted, withdrawn or dropped by Finish).
type openReq struct {
	app    *Application
	at     float64
	pin    string
	closed bool
}

// TestMultiApplicationRunMatchesLedger runs seeded traffic from four
// applications of three tenants (weights 3, 3, 1 and 0) with plain, hinted
// and strict requests, through a mid-run Finish, a node kill, a drain and
// its removal, a new node sorting between two others, a rejoin over the
// killed node, which hints may name while it is down, and the removal of a
// live node. After every event it checks the RM against the test's own
// ledger: each application's PendingRequests and the RM's QueuedRequests
// against a brute-force count, the applications the RM holds against the
// unfinished ones, LiveNodes against the sorted membership, and
// RunningContainers against the audit hook's allocation log. A strict
// request closes when it is withdrawn, which must happen while its node is
// out of the membership and at most one heartbeat after the later of the
// request and the node's leaving, also for a request made after its node
// left. At the end every request was granted, withdrawn or dropped.
func TestMultiApplicationRunMatchesLedger(t *testing.T) {
	withdrawn, late := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng, rm := newRM(t, 5, spec4(), Config{AMResource: Resource{MemMB: 256},
			Tenants: map[string]TenantPolicy{"a": {Weight: 3}, "b": {Weight: 1}, "bg": {Weight: 0}}})
		log := &auditLog{}
		rm.SetAudit(log)
		live := []string{"node-00", "node-01", "node-02", "node-03", "node-04"}
		left := map[string]float64{} // when each node out of live left it
		var apps []*Application
		finished := map[*Application]bool{}
		for _, tn := range []string{"a", "a", "b", "bg"} {
			app, err := rm.SubmitApplicationFor(tn, "")
			if err != nil {
				t.Fatal(err)
			}
			apps = append(apps, app)
		}
		var reqs []*openReq
		request := func(app *Application) {
			if finished[app] {
				return
			}
			r := &openReq{app: app, at: eng.Now()}
			req := Request{Resource: Resource{VCores: 1 + rng.Intn(2), MemMB: 512}}
			// A hint names a live node or the killed node-03, which
			// rejoins under its ID.
			hints := live
			if eng.Now() >= 5 && eng.Now() < 14 {
				hints = append(slices.Clone(live), "node-03")
			}
			switch kind := rng.Intn(4); kind {
			case 1:
				req.NodeHint = hints[rng.Intn(len(hints))]
			case 2, 3: // half the requests are strict
				r.pin = hints[rng.Intn(len(hints))]
				req.NodeHint = r.pin
				req.OnUnplaceable = func(Request) {
					if r.closed || slices.Contains(live, r.pin) {
						t.Fatalf("seed %d at %g: request pinned to %s withdrawn (closed %v, live %v)", seed, eng.Now(), r.pin, r.closed, live)
					}
					r.closed = true
					withdrawn++
					if r.at >= left[r.pin] {
						late++
					}
				}
			}
			reqs = append(reqs, r)
			app.Request(req, func(c *Container) {
				if r.closed || (r.pin != "" && c.NodeID != r.pin) {
					t.Fatalf("seed %d: request pinned to %q granted on %s (closed %v)", seed, r.pin, c.NodeID, r.closed)
				}
				r.closed = true
				eng.Schedule(2+10*rng.Float64(), func() { app.Release(c) })
			})
		}
		// gone models a node leaving the allocatable set.
		gone := func(node string) {
			live = slices.DeleteFunc(live, func(id string) bool { return id == node })
			left[node] = eng.Now()
		}
		join := func(node string) {
			if err := rm.AddNode(node, 4, 4096, false); err != nil {
				t.Fatal(err)
			}
			i, _ := slices.BinarySearch(live, node)
			live = slices.Insert(live, i, node)
			delete(left, node)
		}
		for _, app := range apps {
			for k := 0; k < 20; k++ {
				eng.At(20*rng.Float64(), func() { request(app) })
			}
		}
		eng.At(5, func() { rm.KillNode("node-03"); gone("node-03") })
		eng.At(8, func() {
			apps[1].Finish()
			finished[apps[1]] = true
			for _, r := range reqs {
				if r.app == apps[1] {
					r.closed = true
				}
			}
		})
		eng.At(10, func() {
			if err := rm.DrainNode("node-01", 3, func(node string, _ bool) {
				if err := rm.RemoveNode(node); err != nil {
					t.Fatal(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
			gone("node-01")
		})
		eng.At(12, func() { join("node-02a") })
		eng.At(14, func() { join("node-03") })
		eng.At(16, func() {
			if err := rm.RemoveNode("node-04"); err != nil {
				t.Fatal(err)
			}
			gone("node-04")
		})
		check := func() {
			queued := 0
			for i, app := range apps {
				want := 0
				for _, r := range reqs {
					if r.app == app && !r.closed {
						want++
					}
				}
				if got := app.PendingRequests(); got != want {
					t.Fatalf("seed %d at %g: app %d has %d pending requests, the ledger %d", seed, eng.Now(), i, got, want)
				}
				queued += want
			}
			if got := rm.QueuedRequests(); got != queued {
				t.Fatalf("seed %d at %g: QueuedRequests = %d, the ledger %d", seed, eng.Now(), got, queued)
			}
			if got := len(rm.apps); got != len(apps)-len(finished) {
				t.Fatalf("seed %d at %g: the RM holds %d applications, %d are unfinished", seed, eng.Now(), got, len(apps)-len(finished))
			}
			if got := rm.LiveNodes(); !slices.Equal(got, live) {
				t.Fatalf("seed %d at %g: LiveNodes = %v, want %v", seed, eng.Now(), got, live)
			}
			if got := rm.RunningContainers(); got != log.running {
				t.Fatalf("seed %d at %g: RunningContainers = %d, the allocation log %d", seed, eng.Now(), got, log.running)
			}
			for _, r := range reqs {
				if since, out := left[r.pin]; r.pin != "" && !r.closed && out && eng.Now() > max(r.at, since)+heartbeatSec {
					t.Fatalf("seed %d at %g: request made at %g still pinned to %s, gone since %g", seed, eng.Now(), r.at, r.pin, since)
				}
			}
		}
		for check(); eng.Step(); {
			check()
		}
		if n := rm.QueuedRequests(); n != 0 {
			t.Fatalf("seed %d: %d requests still queued at the end", seed, n)
		}
	}
	if withdrawn == late || late == 0 {
		t.Fatalf("%d strict requests withdrawn, %d of them made after their node left: want both kinds", withdrawn, late)
	}
}

// stalledRound readies an RM with one application per tenant named, each
// holding perApp pending requests that cannot be placed (the AMs leave no
// room for a 4-core worker), so each allocate is one whole round over the
// queues that grants nothing and leaves them as they were: the round the
// served runs, each alone on its cluster, pay whenever a container frees.
func stalledRound(t testing.TB, perApp int, tenants ...string) *ResourceManager {
	eng := sim.NewEngine()
	c, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 1000}, 1, spec4())
	if err != nil {
		t.Fatal(err)
	}
	rm := NewResourceManager(eng, c, Config{AMResource: Resource{MemMB: 256},
		Tenants: map[string]TenantPolicy{"acme": {Weight: 3}, "bulk": {Weight: 1}, "idle": {Weight: 0}}})
	for _, tn := range tenants {
		app, err := rm.SubmitApplicationFor(tn, "")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perApp; i++ {
			app.Request(Request{Resource: Resource{VCores: 4, MemMB: 4096}}, func(*Container) {})
		}
	}
	eng.Run()
	if n := rm.QueuedRequests(); n != perApp*len(tenants) {
		t.Fatalf("%d requests pending, want %d", n, perApp*len(tenants))
	}
	return rm
}

func BenchmarkFairAllocate(b *testing.B) {
	rm := stalledRound(b, 64, "acme")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm.allocate()
	}
}

// BenchmarkFairAllocateTenants is one round over three tenants of two
// applications each: the general order, built from the applications' own
// queues.
func BenchmarkFairAllocateTenants(b *testing.B) {
	rm := stalledRound(b, 11, "acme", "acme", "bulk", "bulk", "idle", "idle")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm.allocate()
	}
}
