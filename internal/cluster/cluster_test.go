package cluster

import (
	"math"
	"slices"
	"testing"

	"hiway/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func testCfg() Config {
	return Config{SwitchMBps: 1000, ExternalPerFlowMBps: 50}
}

func TestNewValidatesSpecs(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, testCfg(), nil); err == nil {
		t.Fatal("expected error for empty cluster")
	}
	bad := M3Large()
	bad.VCores = 0
	if _, err := New(eng, testCfg(), []NodeSpec{bad}); err == nil {
		t.Fatal("expected error for zero vcores")
	}
	if _, err := New(eng, Config{SwitchMBps: 0}, []NodeSpec{M3Large()}); err == nil {
		t.Fatal("expected error for zero switch bandwidth")
	}
}

// TestNodeIDsSurviveMembershipChange pins that a NodeIDs slice is never
// rewritten: a membership change makes the next call build a new slice and
// leaves the ones already handed out as they were.
func TestNodeIDsSurviveMembershipChange(t *testing.T) {
	c, err := Uniform(sim.NewEngine(), testCfg(), 4, M3Large())
	if err != nil {
		t.Fatal(err)
	}
	before := c.NodeIDs()
	want := []string{"node-00", "node-01", "node-02", "node-03"}
	if !slices.Equal(before, want) {
		t.Fatalf("NodeIDs = %v, want %v", before, want)
	}
	if err := c.RemoveNode("node-01"); err != nil {
		t.Fatal(err)
	}
	afterRemove := c.NodeIDs()
	if w := []string{"node-00", "node-02", "node-03"}; !slices.Equal(afterRemove, w) {
		t.Fatalf("NodeIDs after RemoveNode = %v, want %v", afterRemove, w)
	}
	if !slices.Equal(before, want) {
		t.Fatalf("slice taken before RemoveNode reads %v afterwards, want %v", before, want)
	}
	if _, err := c.AddNode("node-01", M3Large()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNode("", M3Large()); err != nil {
		t.Fatal(err)
	}
	if w := []string{"node-00", "node-02", "node-03"}; !slices.Equal(afterRemove, w) {
		t.Fatalf("slice taken before AddNode reads %v afterwards, want %v", afterRemove, w)
	}
	if !slices.Equal(before, want) {
		t.Fatalf("first slice reads %v after AddNode, want %v", before, want)
	}
	if w := []string{"node-00", "node-01", "node-02", "node-03", "node-04"}; !slices.Equal(c.NodeIDs(), w) {
		t.Fatalf("NodeIDs after AddNode = %v, want %v", c.NodeIDs(), w)
	}
}

func TestNodeIDsAndLookup(t *testing.T) {
	eng := sim.NewEngine()
	c, err := Uniform(eng, testCfg(), 3, M3Large())
	if err != nil {
		t.Fatal(err)
	}
	ids := c.NodeIDs()
	want := []string{"node-00", "node-01", "node-02"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v", ids)
		}
	}
	if c.Node("node-01") == nil || c.Node("nope") != nil {
		t.Fatal("lookup broken")
	}
	if c.Size() != 3 {
		t.Fatalf("size = %d", c.Size())
	}
}

func TestComputeSingleThread(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := Uniform(eng, testCfg(), 1, NodeSpec{VCores: 4, MemMB: 1024, CPUFactor: 1, DiskMBps: 100, NetMBps: 100})
	var done float64
	c.Compute(c.Nodes()[0], 10, 1, func() { done = eng.Now() })
	eng.Run()
	if !almost(done, 10, 1e-9) {
		t.Fatalf("1 thread, 10 core-s: finished at %g, want 10", done)
	}
}

func TestComputeMultithreadSpeedup(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := Uniform(eng, testCfg(), 1, NodeSpec{VCores: 4, MemMB: 1024, CPUFactor: 1, DiskMBps: 100, NetMBps: 100})
	var done float64
	c.Compute(c.Nodes()[0], 40, 4, func() { done = eng.Now() })
	eng.Run()
	if !almost(done, 10, 1e-9) {
		t.Fatalf("4 threads, 40 core-s on 4 cores: finished at %g, want 10", done)
	}
}

func TestComputeFasterNode(t *testing.T) {
	eng := sim.NewEngine()
	spec := M3Large()
	spec.CPUFactor = 2.0
	c, _ := Uniform(eng, testCfg(), 1, spec)
	var done float64
	c.Compute(c.Nodes()[0], 10, 1, func() { done = eng.Now() })
	eng.Run()
	if !almost(done, 5, 1e-9) {
		t.Fatalf("2x node: finished at %g, want 5", done)
	}
}

func TestComputeUnderCPUStress(t *testing.T) {
	eng := sim.NewEngine()
	spec := M3Large() // 2 cores
	spec.CPUHogs = 1
	c, _ := Uniform(eng, testCfg(), 1, spec)
	var done float64
	// 2 core-seconds with 1 thread: hog takes one core, task the other.
	c.Compute(c.Nodes()[0], 2, 1, func() { done = eng.Now() })
	eng.Run()
	if !almost(done, 2, 1e-9) {
		t.Fatalf("under 1 hog: finished at %g, want 2", done)
	}
}

func TestComputeUnderHeavyCPUStressSlowdown(t *testing.T) {
	eng := sim.NewEngine()
	clean := M3Large()
	stressed := M3Large()
	stressed.CPUHogs = 64
	c, _ := New(eng, testCfg(), []NodeSpec{clean, stressed})
	var tClean, tStressed float64
	c.Compute(c.Nodes()[0], 10, 2, func() { tClean = eng.Now() })
	c.Compute(c.Nodes()[1], 10, 2, func() { tStressed = eng.Now() })
	eng.Run()
	if tStressed < 10*tClean {
		t.Fatalf("64 hogs should slow the task by >10x: clean=%g stressed=%g", tClean, tStressed)
	}
}

func TestIOHogsSlowDisk(t *testing.T) {
	eng := sim.NewEngine()
	clean := M3Large()
	stressed := M3Large()
	stressed.IOHogs = 4
	c, _ := New(eng, testCfg(), []NodeSpec{clean, stressed})
	var tClean, tStressed float64
	c.ReadLocal(c.Nodes()[0], 250, func() { tClean = eng.Now() })
	c.ReadLocal(c.Nodes()[1], 250, func() { tStressed = eng.Now() })
	eng.Run()
	if !almost(tClean, 1, 1e-9) {
		t.Fatalf("clean read at %g, want 1", tClean)
	}
	// 4 hogs + 1 reader share the disk: 5x slower.
	if !almost(tStressed, 5, 1e-6) {
		t.Fatalf("stressed read at %g, want 5", tStressed)
	}
}

func TestTransferThroughSwitch(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := Uniform(eng, Config{SwitchMBps: 1000}, 2, M3Large()) // NIC 85
	var done float64
	c.Transfer(c.Nodes()[0], c.Nodes()[1], 850, func() { done = eng.Now() })
	eng.Run()
	// Capped by NIC at 85 MB/s → 10s.
	if !almost(done, 10, 1e-9) {
		t.Fatalf("transfer at %g, want 10", done)
	}
}

func TestTransferSwitchSaturation(t *testing.T) {
	eng := sim.NewEngine()
	// Switch 100 MB/s, NICs 85: four concurrent flows share 100.
	c, _ := Uniform(eng, Config{SwitchMBps: 100}, 8, M3Large())
	nodes := c.Nodes()
	var last float64
	for i := 0; i < 4; i++ {
		c.Transfer(nodes[i], nodes[4+i], 100, func() { last = eng.Now() })
	}
	eng.Run()
	// 400 MB through a 100 MB/s switch: 4s regardless of NIC headroom.
	if !almost(last, 4, 1e-9) {
		t.Fatalf("saturated transfers finished at %g, want 4", last)
	}
}

func TestTransferSameNodeUsesDisk(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := Uniform(eng, testCfg(), 1, M3Large()) // disk 250
	n := c.Nodes()[0]
	var done float64
	c.Transfer(n, n, 250, func() { done = eng.Now() })
	eng.Run()
	if !almost(done, 1, 1e-9) {
		t.Fatalf("local transfer at %g, want 1 (disk-bound)", done)
	}
	if c.Switch.Utilization() != 0 {
		t.Fatal("local transfer must not touch the switch")
	}
}

func TestFetchExternalBypassesSwitch(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := Uniform(eng, Config{SwitchMBps: 1000, ExternalPerFlowMBps: 50}, 1, M3Large())
	var done float64
	c.FetchExternal(c.Nodes()[0], 500, func() { done = eng.Now() })
	eng.Run()
	if !almost(done, 10, 1e-9) {
		t.Fatalf("external fetch at %g, want 10 (50 MB/s per flow)", done)
	}
	if c.Switch.Utilization() != 0 {
		t.Fatal("external fetch must not touch the switch")
	}
}

func TestMetricsReportLoadAndThroughput(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := Uniform(eng, testCfg(), 2, M3Large())
	n := c.Nodes()[0]
	c.Compute(n, 20, 2, nil) // 2 cores for 10s
	eng.Run()
	m := c.Metrics()
	if len(m) != 2 || m[0].NodeID != "node-00" {
		t.Fatalf("metrics = %+v", m)
	}
	if !almost(m[0].CPULoad, 2, 1e-9) {
		t.Fatalf("cpu load = %g, want 2", m[0].CPULoad)
	}
	if m[1].CPULoad != 0 {
		t.Fatalf("idle node load = %g", m[1].CPULoad)
	}
}

func TestPresetSpecsValid(t *testing.T) {
	for _, s := range []NodeSpec{M3Large(), C32XLarge(), XeonE52620()} {
		if err := s.Validate(); err != nil {
			t.Fatalf("preset invalid: %v", err)
		}
	}
	if XeonE52620().VCores != 24 {
		t.Fatal("Xeon preset should have 24 vcores")
	}
}

func TestTransferAsymmetricNICCap(t *testing.T) {
	eng := sim.NewEngine()
	slowNIC := NodeSpec{VCores: 2, MemMB: 1024, CPUFactor: 1, DiskMBps: 100, NetMBps: 10}
	fastNIC := NodeSpec{VCores: 2, MemMB: 1024, CPUFactor: 1, DiskMBps: 100, NetMBps: 1000}
	c, err := New(eng, Config{SwitchMBps: 10000}, []NodeSpec{slowNIC, fastNIC})
	if err != nil {
		t.Fatal(err)
	}
	var done float64
	// Either direction is capped by the slower endpoint's NIC (10 MB/s).
	c.Transfer(c.Nodes()[1], c.Nodes()[0], 100, func() { done = eng.Now() })
	eng.Run()
	if !almost(done, 10, 1e-9) {
		t.Fatalf("fast→slow transfer at %g, want 10", done)
	}
	var done2 float64
	c.Transfer(c.Nodes()[0], c.Nodes()[1], 100, func() { done2 = eng.Now() })
	eng.Run()
	if !almost(done2-done, 10, 1e-9) {
		t.Fatalf("slow→fast transfer took %g, want 10", done2-done)
	}
}

func TestComputeOversubscribedThreads(t *testing.T) {
	// A task asking for more threads than the node has cores is capped at
	// the node's capacity.
	eng := sim.NewEngine()
	c, _ := Uniform(eng, Config{SwitchMBps: 100}, 1, NodeSpec{VCores: 2, MemMB: 1024, CPUFactor: 1, DiskMBps: 10, NetMBps: 10})
	var done float64
	c.Compute(c.Nodes()[0], 20, 16, func() { done = eng.Now() })
	eng.Run()
	if !almost(done, 10, 1e-9) {
		t.Fatalf("16 threads on 2 cores: finished at %g, want 10", done)
	}
}
