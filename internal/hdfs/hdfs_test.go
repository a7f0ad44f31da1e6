package hdfs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hiway/internal/cluster"
	"hiway/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// localMB is how many of one file's megabytes have a live replica on the
// node, read through LocalFraction.
func localMB(fs *FS, path, nodeID string) float64 {
	f, ok := fs.Stat(path)
	if !ok {
		return 0
	}
	return fs.LocalFraction([]string{path}, nodeID) * f.SizeMB
}

// replicaIDs names the nodes holding a block, in replica order; a slot
// whose node left reads "gone".
func replicaIDs(fs *FS, b Block) []string {
	ids := make([]string, len(b.Replicas))
	for i, r := range b.Replicas {
		ids[i] = "gone"
		if n := fs.cluster.NodeAt(r); n != nil {
			ids[i] = n.ID
		}
	}
	return ids
}

// nodeIDs lists the members' IDs in ID order.
func nodeIDs(c *cluster.Cluster) []string { return slotIDs(c, c.Slots()) }

func newTestCluster(t testing.TB, n int) (*sim.Engine, *cluster.Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	spec := cluster.NodeSpec{VCores: 4, MemMB: 8192, CPUFactor: 1, DiskMBps: 100, NetMBps: 100}
	c, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 1000, ExternalPerFlowMBps: 50}, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

func TestPutPlacesWriterLocalFirstReplica(t *testing.T) {
	_, c := newTestCluster(t, 5)
	fs := New(c, Config{BlockSizeMB: 64, Replication: 3}, 1)
	f, err := fs.Put("/data/a", 200, "node-02")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 4 { // 64+64+64+8
		t.Fatalf("blocks = %d, want 4", len(f.Blocks))
	}
	for i, b := range f.Blocks {
		reps := replicaIDs(fs, b)
		if reps[0] != "node-02" {
			t.Fatalf("block %d first replica = %s, want node-02", i, reps[0])
		}
		if len(reps) != 3 {
			t.Fatalf("block %d replication = %d", i, len(reps))
		}
		seen := map[string]bool{}
		for _, r := range reps {
			if seen[r] {
				t.Fatalf("block %d has duplicate replica %s", i, r)
			}
			seen[r] = true
		}
	}
	if !almost(f.Blocks[3].SizeMB, 8, 1e-9) {
		t.Fatalf("tail block = %g, want 8", f.Blocks[3].SizeMB)
	}
}

func TestPutRandomPlacementWithoutWriter(t *testing.T) {
	_, c := newTestCluster(t, 8)
	fs := New(c, Config{BlockSizeMB: 32, Replication: 2}, 42)
	f, _ := fs.Put("/data/b", 320, "")
	firsts := map[string]bool{}
	for _, b := range f.Blocks {
		firsts[replicaIDs(fs, b)[0]] = true
	}
	if len(firsts) < 2 {
		t.Fatalf("random placement always picked the same first node: %v", firsts)
	}
}

func TestReplicationClampedToClusterSize(t *testing.T) {
	_, c := newTestCluster(t, 2)
	fs := New(c, Config{Replication: 3}, 1)
	if fs.Config().Replication != 2 {
		t.Fatalf("replication = %d, want 2", fs.Config().Replication)
	}
}

func TestZeroByteFile(t *testing.T) {
	_, c := newTestCluster(t, 3)
	fs := New(c, Config{}, 1)
	f, err := fs.Put("/empty", 0, "node-00")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 1 || f.Blocks[0].SizeMB != 0 {
		t.Fatalf("zero-byte file blocks = %+v", f.Blocks)
	}
	if !fs.Readable("/empty") {
		t.Fatal("zero-byte file should be readable")
	}
}

func TestPutRejectsBadArgs(t *testing.T) {
	_, c := newTestCluster(t, 3)
	fs := New(c, Config{}, 1)
	if _, err := fs.Put("/x", -1, ""); err == nil {
		t.Fatal("expected error for negative size")
	}
	if _, err := fs.Put("/x", 1, "node-99"); err == nil {
		t.Fatal("expected error for unknown writer")
	}
}

// TestBlockBound: a file over MaxBlocksPerFile blocks is refused by Put
// and by Write before any block is laid out, whether its size is huge or
// its block size tiny; a file of exactly the bound is laid out.
func TestBlockBound(t *testing.T) {
	eng, c := newTestCluster(t, 3)
	for _, tc := range []struct {
		blockMB, sizeMB float64
		ok              bool
	}{
		{128, 1e12, false},
		{128, math.Inf(1), false},
		{128, math.NaN(), false},
		{1e-9, 1, false},
		{1, MaxBlocksPerFile + 0.5, false},
		{1, MaxBlocksPerFile, true},
		{128, 3500, true},
	} {
		fs := New(c, Config{BlockSizeMB: tc.blockMB, Replication: 1}, 1)
		if _, err := fs.Put("/p", tc.sizeMB, ""); (err == nil) != tc.ok {
			t.Errorf("Put of %g MB in %g MB blocks: error %v, want ok=%v", tc.sizeMB, tc.blockMB, err, tc.ok)
		}
		var werr error
		fs.Write(c.Node("node-01"), "/w", tc.sizeMB, func(err error) { werr = err })
		eng.Run()
		if (werr == nil) != tc.ok || fs.Exists("/w") != tc.ok {
			t.Errorf("Write of %g MB in %g MB blocks: error %v, want ok=%v", tc.sizeMB, tc.blockMB, werr, tc.ok)
		}
	}
}

func TestLocalMBAndFraction(t *testing.T) {
	_, c := newTestCluster(t, 5)
	fs := New(c, Config{BlockSizeMB: 1000, Replication: 1}, 1)
	fs.Put("/a", 100, "node-00")
	fs.Put("/b", 300, "node-01")
	if got := localMB(fs, "/a", "node-00"); !almost(got, 100, 1e-9) {
		t.Fatalf("LocalMB = %g, want 100", got)
	}
	if got := localMB(fs, "/a", "node-01"); got != 0 {
		t.Fatalf("LocalMB on other node = %g", got)
	}
	paths := []string{"/a", "/b"}
	if got := fs.LocalFraction(paths, "node-01"); !almost(got, 0.75, 1e-9) {
		t.Fatalf("LocalFraction = %g, want 0.75", got)
	}
	if got := fs.LocalFraction(nil, "node-00"); got != 0 {
		t.Fatalf("empty input fraction = %g", got)
	}
	if got := fs.TotalMB(paths); !almost(got, 400, 1e-9) {
		t.Fatalf("TotalMB = %g", got)
	}
}

func TestPlanClassifiesBytes(t *testing.T) {
	_, c := newTestCluster(t, 4)
	fs := New(c, Config{BlockSizeMB: 1000, Replication: 1}, 1)
	fs.Put("/local", 50, "node-00")
	fs.Put("/remote", 70, "node-01")
	fs.PutExternal("/s3/reads", 500)
	plan := fs.Plan([]string{"/local", "/remote", "/s3/reads", "/missing"}, "node-00")
	if !almost(plan.LocalMB, 50, 1e-9) || !almost(plan.RemoteMB, 70, 1e-9) || !almost(plan.ExternalMB, 500, 1e-9) {
		t.Fatalf("plan = %+v", plan)
	}
	if len(plan.Missing) != 1 || plan.Missing[0] != "/missing" {
		t.Fatalf("missing = %v", plan.Missing)
	}
}

func TestReadLocalOnlyUsesDisk(t *testing.T) {
	eng, c := newTestCluster(t, 3)
	fs := New(c, Config{BlockSizeMB: 1000, Replication: 1}, 1)
	fs.Put("/a", 100, "node-00") // disk at 100 MB/s → 1s
	var doneAt float64
	fs.Read(c.Node("node-00"), []string{"/a"}, func(err error) {
		if err != nil {
			t.Errorf("read error: %v", err)
		}
		doneAt = eng.Now()
	})
	eng.Run()
	if !almost(doneAt, 1, 1e-9) {
		t.Fatalf("local read at %g, want 1", doneAt)
	}
	if c.Switch.Throughput() != 0 {
		t.Fatal("local read must not touch the switch")
	}
}

func TestReadRemoteUsesSwitch(t *testing.T) {
	eng, c := newTestCluster(t, 3)
	fs := New(c, Config{BlockSizeMB: 1000, Replication: 1}, 1)
	fs.Put("/a", 200, "node-01") // NIC 100 MB/s → 2s via switch
	var doneAt float64
	fs.Read(c.Node("node-00"), []string{"/a"}, func(err error) {
		if err != nil {
			t.Errorf("read error: %v", err)
		}
		doneAt = eng.Now()
	})
	eng.Run()
	if !almost(doneAt, 2, 1e-9) {
		t.Fatalf("remote read at %g, want 2", doneAt)
	}
	if c.Switch.Throughput() == 0 {
		t.Fatal("remote read should cross the switch")
	}
}

func TestReadExternalUsesNIC(t *testing.T) {
	eng, c := newTestCluster(t, 2)
	fs := New(c, Config{}, 1)
	fs.PutExternal("/s3/x", 100) // 50 MB/s per flow → 2s
	var doneAt float64
	fs.Read(c.Node("node-00"), []string{"/s3/x"}, func(err error) {
		if err != nil {
			t.Errorf("read error: %v", err)
		}
		doneAt = eng.Now()
	})
	eng.Run()
	if !almost(doneAt, 2, 1e-9) {
		t.Fatalf("external read at %g, want 2", doneAt)
	}
	if c.Switch.Throughput() != 0 {
		t.Fatal("external read must not cross the switch")
	}
}

func TestReadMissingFileErrors(t *testing.T) {
	eng, c := newTestCluster(t, 2)
	fs := New(c, Config{}, 1)
	var gotErr error
	fs.Read(c.Node("node-00"), []string{"/nope"}, func(err error) { gotErr = err })
	eng.Run()
	if gotErr == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestReadUnknownNodeErrors(t *testing.T) {
	eng, c := newTestCluster(t, 2)
	fs := New(c, Config{}, 1)
	var gotErr error
	fs.Read(c.Node("node-77"), nil, func(err error) { gotErr = err })
	eng.Run()
	if gotErr == nil {
		t.Fatal("expected error for unknown node")
	}
}

func TestReadEmptySetCompletes(t *testing.T) {
	eng, c := newTestCluster(t, 2)
	fs := New(c, Config{}, 1)
	called := false
	fs.Read(c.Node("node-00"), nil, func(err error) {
		if err != nil {
			t.Errorf("err = %v", err)
		}
		called = true
	})
	eng.Run()
	if !called {
		t.Fatal("callback not invoked")
	}
}

func TestWriteRegistersMetadataMatchingTraffic(t *testing.T) {
	eng, c := newTestCluster(t, 4)
	fs := New(c, Config{BlockSizeMB: 1000, Replication: 3}, 7)
	var doneAt float64
	fs.Write(c.Node("node-00"), "/out", 100, func(err error) {
		if err != nil {
			t.Errorf("write error: %v", err)
		}
		doneAt = eng.Now()
	})
	eng.Run()
	f, ok := fs.Stat("/out")
	if !ok {
		t.Fatal("file not registered")
	}
	if reps := replicaIDs(fs, f.Blocks[0]); reps[0] != "node-00" {
		t.Fatalf("first replica = %s, want writer-local", reps[0])
	}
	if len(f.Blocks[0].Replicas) != 3 {
		t.Fatalf("replicas = %v", f.Blocks[0].Replicas)
	}
	// Local write 100MB at 100MB/s = 1s; two replica flows of 100MB each
	// share nothing (switch 1000), NIC capped at 100 → 1s. Total ~1s.
	if !almost(doneAt, 1, 0.5) {
		t.Fatalf("write completed at %g, want ~1", doneAt)
	}
	if got := localMB(fs, "/out", "node-00"); !almost(got, 100, 1e-9) {
		t.Fatalf("writer-local MB = %g", got)
	}
}

func TestWriteBeforeCompletionNotVisible(t *testing.T) {
	eng, c := newTestCluster(t, 3)
	fs := New(c, Config{}, 1)
	fs.Write(c.Node("node-00"), "/slow", 100, func(error) {})
	if fs.Exists("/slow") {
		t.Fatal("file visible before write completed")
	}
	eng.Run()
	if !fs.Exists("/slow") {
		t.Fatal("file missing after write completed")
	}
}

func TestWriteZeroBytes(t *testing.T) {
	eng, c := newTestCluster(t, 3)
	fs := New(c, Config{}, 1)
	var called bool
	fs.Write(c.Node("node-00"), "/zero", 0, func(err error) {
		if err != nil {
			t.Errorf("err = %v", err)
		}
		called = true
	})
	eng.Run()
	if !called || !fs.Exists("/zero") {
		t.Fatal("zero-byte write failed")
	}
}

func TestKillNodeFailover(t *testing.T) {
	eng, c := newTestCluster(t, 3)
	fs := New(c, Config{BlockSizeMB: 1000, Replication: 2}, 1)
	fs.Put("/a", 100, "node-00")
	f, _ := fs.Stat("/a")
	second := replicaIDs(fs, f.Blocks[0])[1]
	fs.KillNode("node-00")
	if !fs.Readable("/a") {
		t.Fatal("file should survive one node crash with replication 2")
	}
	if localMB(fs, "/a", "node-00") != 0 {
		t.Fatal("dead node must not report local bytes")
	}
	plan := fs.Plan([]string{"/a"}, second)
	if !almost(plan.LocalMB, 100, 1e-9) {
		t.Fatalf("surviving replica should be local on %s: %+v", second, plan)
	}
	// Reading still works.
	var gotErr error
	fs.Read(c.Node(second), []string{"/a"}, func(err error) { gotErr = err })
	eng.Run()
	if gotErr != nil {
		t.Fatalf("read after crash: %v", gotErr)
	}
	// Killing the second replica too breaks the file.
	fs.KillNode(second)
	if fs.Readable("/a") {
		t.Fatal("file should be unreadable with all replicas dead")
	}
}

func TestDeadNodeReceivesNoNewReplicas(t *testing.T) {
	_, c := newTestCluster(t, 3)
	fs := New(c, Config{Replication: 3}, 1)
	fs.KillNode("node-01")
	f, _ := fs.Put("/a", 10, "node-00")
	for _, r := range replicaIDs(fs, f.Blocks[0]) {
		if r == "node-01" {
			t.Fatal("replica placed on dead node")
		}
	}
	if len(f.Blocks[0].Replicas) != 2 {
		t.Fatalf("replicas = %v, want 2 live nodes", f.Blocks[0].Replicas)
	}
}

func TestFilesSorted(t *testing.T) {
	_, c := newTestCluster(t, 2)
	fs := New(c, Config{}, 1)
	fs.Put("/b", 1, "")
	fs.Put("/a", 1, "")
	got := fs.Files()
	if len(got) != 2 || got[0] != "/a" || got[1] != "/b" {
		t.Fatalf("Files() = %v", got)
	}
	if !fs.Exists("/a") || fs.Exists("/c") {
		t.Fatal("Exists disagrees with Files")
	}
}

func TestRereplicateRestoresFactor(t *testing.T) {
	eng, c := newTestCluster(t, 5)
	fs := New(c, Config{BlockSizeMB: 32, Replication: 3}, 9)
	fs.Put("/a", 100, "node-00")
	fs.Put("/b", 50, "node-01")
	if n := fs.UnderReplicated(); n != 0 {
		t.Fatalf("fresh fs under-replicated = %d", n)
	}
	fs.KillNode("node-00")
	under := fs.UnderReplicated()
	if under == 0 {
		t.Fatal("killing a replica holder should leave under-replicated blocks")
	}
	var copies int
	fs.Rereplicate(func(n int) { copies = n })
	eng.Run()
	if copies != under { // one holder died, so each such block lacks one replica
		t.Fatalf("%d copies made for %d under-replicated blocks", copies, under)
	}
	if n := fs.UnderReplicated(); n != 0 {
		t.Fatalf("still %d under-replicated blocks after recovery", n)
	}
	// The recovered replicas are on live nodes only.
	for _, p := range fs.Files() {
		f, _ := fs.Stat(p)
		for _, b := range f.Blocks {
			live := 0
			for _, r := range replicaIDs(fs, b) {
				if r != "node-00" {
					live++
				}
			}
			if live != 3 {
				t.Fatalf("block of %s has %d live replicas, want 3", p, live)
			}
		}
	}
	// Idempotent: nothing further to copy.
	ran := false
	fs.Rereplicate(func(n int) {
		ran = true
		if n != 0 {
			t.Fatalf("second pass copied %d", n)
		}
	})
	eng.Run()
	if !ran {
		t.Fatal("done callback not invoked")
	}
}

// TestDecommissionEvacuatesBlocks pins graceful-decommission semantics: a
// decommissioning node keeps serving reads, receives no new replicas, no
// longer counts toward the replication factor, and Rereplicate copies its
// blocks to staying nodes — so concurrent drains cannot strand a block with
// all of its holders departing.
func TestDecommissionEvacuatesBlocks(t *testing.T) {
	eng, c := newTestCluster(t, 4)
	fs := New(c, Config{BlockSizeMB: 64, Replication: 2}, 9)
	f, _ := fs.Put("/a", 64, "node-00")
	holder := replicaIDs(fs, f.Blocks[0])[1]
	slot := c.Node(holder).Slot
	fs.DecommissionNode(holder)

	// Still readable: the decommissioning replica serves until departure.
	if !fs.Readable("/a") {
		t.Fatal("file unreadable during decommission")
	}
	// No longer a placement target.
	g, _ := fs.Put("/b", 64, "")
	for _, r := range replicaIDs(fs, g.Blocks[0]) {
		if r == holder {
			t.Fatalf("decommissioning node %s received a new replica", holder)
		}
	}
	// Evacuation: the factor is restored on staying nodes only.
	var copies int
	fs.Rereplicate(func(n int) { copies = n })
	eng.Run()
	if copies == 0 {
		t.Fatal("no evacuation copies made")
	}
	staying := 0
	f, _ = fs.Stat("/a")
	for _, r := range f.Blocks[0].Replicas {
		if r != slot && !fs.has(r, dead) {
			staying++
		}
	}
	if staying < 2 {
		t.Fatalf("block has %d staying replicas after evacuation, want 2 (replicas %v)",
			staying, f.Blocks[0].Replicas)
	}
	// ForgetNode clears the decommission mark so a same-ID rejoin is a
	// blank, placeable machine again.
	fs.KillNode(holder)
	fs.ForgetNode(holder)
	if fs.has(slot, excluded) {
		t.Fatal("ForgetNode left the decommission mark in place")
	}
}

// TestRereplicateDestinationDepartsMidFlight pins the elastic-membership
// hazard: a rereplication copy is in flight toward a node that is reclaimed
// (removed from the cluster and forgotten by the namespace) before the copy
// completes. The completed transfer must NOT register the departed node as a
// replica holder — otherwise a later Rereplicate would pick the phantom
// machine as a copy source and dereference a node that no longer exists.
func TestRereplicateDestinationDepartsMidFlight(t *testing.T) {
	eng, c := newTestCluster(t, 3)
	fs := New(c, Config{BlockSizeMB: 64, Replication: 2}, 9)
	f, _ := fs.Put("/a", 64, "node-00")
	// Kill the second replica holder; the sole rereplication candidate is
	// the remaining third node.
	var dst string
	reps := replicaIDs(fs, f.Blocks[0])
	fs.KillNode(reps[1])
	for _, id := range nodeIDs(c) {
		if id != reps[0] && id != reps[1] {
			dst = id
		}
	}
	fs.Rereplicate(func(int) {})
	// Reclaim the destination while the copy is still on the wire.
	c.RemoveNode(dst)
	fs.KillNode(dst)
	fs.ForgetNode(dst)
	eng.Run()
	for _, b := range f.Blocks {
		for _, r := range b.Replicas {
			if c.NodeAt(r) == nil {
				t.Fatalf("replica registered on departed slot %d: %v", r, replicaIDs(fs, b))
			}
		}
	}
	// A further pass must not panic on a phantom source (and has nowhere
	// left to copy to).
	fs.Rereplicate(func(int) {})
	eng.Run()
}

func TestRereplicateSkipsLostBlocks(t *testing.T) {
	eng, c := newTestCluster(t, 3)
	fs := New(c, Config{BlockSizeMB: 1000, Replication: 1}, 9)
	f, _ := fs.Put("/a", 10, "node-00")
	fs.KillNode(replicaIDs(fs, f.Blocks[0])[0])
	var copies int
	fs.Rereplicate(func(n int) { copies = n })
	eng.Run()
	if copies != 0 {
		t.Fatalf("lost block cannot be copied, got %d copies", copies)
	}
	if fs.Readable("/a") {
		t.Fatal("block with no replicas should stay unreadable")
	}
}

func TestExcludeNodesReceiveNoReplicas(t *testing.T) {
	_, c := newTestCluster(t, 4)
	fs := New(c, Config{BlockSizeMB: 16, Replication: 3, ExcludeNodes: []string{"node-00", "node-01"}}, 3)
	// Replication clamps to the two datanodes.
	if fs.Config().Replication != 2 {
		t.Fatalf("replication = %d, want 2", fs.Config().Replication)
	}
	f, err := fs.Put("/a", 100, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Blocks {
		for _, r := range replicaIDs(fs, b) {
			if r == "node-00" || r == "node-01" {
				t.Fatalf("replica placed on excluded master node %s", r)
			}
		}
	}
	// A writer on an excluded node gets no local first replica.
	f2, _ := fs.Put("/b", 10, "node-00")
	for _, r := range replicaIDs(fs, f2.Blocks[0]) {
		if r == "node-00" {
			t.Fatal("excluded writer received a replica")
		}
	}
	// Reading from an excluded node still works (all bytes remote).
	plan := fs.Plan([]string{"/a"}, "node-00")
	if plan.LocalMB != 0 || plan.RemoteMB != 100 {
		t.Fatalf("plan from master = %+v", plan)
	}
}

// Property: block sizes always sum to the file size and every block has
// min(replication, liveNodes) distinct replicas.
func TestPutInvariantsProperty(t *testing.T) {
	f := func(seed int64, sizeQ uint16, repQ, nodesQ uint8) bool {
		nodes := int(nodesQ%6) + 1
		rep := int(repQ%4) + 1
		size := float64(sizeQ % 2000)
		eng := sim.NewEngine()
		spec := cluster.NodeSpec{VCores: 2, MemMB: 1024, CPUFactor: 1, DiskMBps: 10, NetMBps: 10}
		c, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 100}, nodes, spec)
		if err != nil {
			return false
		}
		fs := New(c, Config{BlockSizeMB: 64, Replication: rep}, seed)
		file, err := fs.Put("/f", size, "")
		if err != nil {
			return false
		}
		var sum float64
		wantRep := rep
		if wantRep > nodes {
			wantRep = nodes
		}
		for _, b := range file.Blocks {
			sum += b.SizeMB
			if len(b.Replicas) != wantRep {
				return false
			}
			seen := map[int32]bool{}
			for _, r := range b.Replicas {
				if seen[r] {
					return false
				}
				seen[r] = true
			}
		}
		return almost(sum, size, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a file's local MB never exceed its size, and summing them over all
// nodes equals size × replication (each replica counted once).
func TestLocalMBProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		spec := cluster.NodeSpec{VCores: 2, MemMB: 1024, CPUFactor: 1, DiskMBps: 10, NetMBps: 10}
		nodes := rng.Intn(8) + 3
		c, _ := cluster.Uniform(eng, cluster.Config{SwitchMBps: 100}, nodes, spec)
		fs := New(c, Config{BlockSizeMB: 32, Replication: 3}, seed)
		size := rng.Float64() * 500
		file, _ := fs.Put("/f", size, "")
		var total float64
		for _, id := range nodeIDs(c) {
			lm := localMB(fs, "/f", id)
			if lm > size+1e-9 {
				return false
			}
			total += lm
		}
		_ = file
		return almost(total, size*3, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
