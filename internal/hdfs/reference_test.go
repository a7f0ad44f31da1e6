package hdfs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hiway/internal/cluster"
)

// refFS is the name-keyed namenode that slots replaced, kept as the
// reference the slot-keyed FS is driven against: replica lists of node IDs,
// dead and excluded sets of IDs, locality answered by comparing strings. It
// draws placements from its own copy of the placement rng and moves bytes
// on a cluster of its own, a twin of the FS's, so both see the same
// membership and the same transfer timings.
type refFS struct {
	cfg      Config
	cluster  *cluster.Cluster
	draws    *FS // its rng and draw only
	files    map[string]*refFile
	dead     map[string]bool
	excluded map[string]bool
}

type refFile struct {
	SizeMB   float64
	External bool
	Blocks   []refBlock
}

type refBlock struct {
	SizeMB   float64
	Replicas []string
}

// nameMB is one planned flow: a peer's ID and its MB.
type nameMB struct {
	node string
	mb   float64
}

func newRefFS(c *cluster.Cluster, cfg Config, seed int64) *refFS {
	r := &refFS{cfg: cfg, cluster: c, draws: &FS{rng: rand.New(rand.NewSource(seed))},
		files: map[string]*refFile{}, dead: map[string]bool{}, excluded: map[string]bool{}}
	for _, id := range cfg.ExcludeNodes {
		r.excluded[id] = true
	}
	return r
}

func (r *refFS) put(path string, sizeMB float64, writer string) *refFile {
	f := &refFile{SizeMB: sizeMB}
	for off := 0.0; off < sizeMB || (sizeMB == 0 && off == 0); off += r.cfg.BlockSizeMB {
		sz := r.cfg.BlockSizeMB
		if off+sz > sizeMB {
			sz = sizeMB - off
		}
		f.Blocks = append(f.Blocks, refBlock{SizeMB: sz, Replicas: r.placeReplicas(writer)})
		if sizeMB == 0 {
			break
		}
	}
	r.files[path] = f
	return f
}

func (r *refFS) placeReplicas(writer string) []string {
	live := r.liveNodes()
	reps := make([]string, 0, r.cfg.Replication)
	skip, n := len(live), len(live)
	if writer != "" && !r.dead[writer] && !r.excluded[writer] {
		reps = append(reps, writer)
		if i, ok := slices.BinarySearchFunc(live, writer, cluster.CompareIDs); ok {
			skip, n = i, n-1
		}
	}
	for _, k := range r.draws.draw(n, min(n, r.cfg.Replication-len(reps))) {
		if int(k) >= skip {
			k++
		}
		reps = append(reps, live[k])
	}
	return reps
}

func (r *refFS) liveNodes() []string {
	var out []string
	for _, id := range nodeIDs(r.cluster) {
		if !r.dead[id] && !r.excluded[id] {
			out = append(out, id)
		}
	}
	return out
}

func (r *refFS) forgetNode(id string) {
	for _, f := range r.files {
		for i := range f.Blocks {
			f.Blocks[i].Replicas = slices.DeleteFunc(f.Blocks[i].Replicas, func(x string) bool { return x == id })
		}
	}
	delete(r.dead, id)
	delete(r.excluded, id)
}

func (r *refFS) liveReplica(b refBlock, prefer string) string {
	for _, x := range b.Replicas {
		if x == prefer && !r.dead[x] {
			return x
		}
	}
	for _, x := range b.Replicas {
		if !r.dead[x] {
			return x
		}
	}
	return ""
}

func (r *refFS) rereplicate() {
	target := min(r.cfg.Replication, len(r.liveNodes()))
	paths := make([]string, 0, len(r.files))
	for p := range r.files {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	for _, p := range paths {
		f := r.files[p]
		if f.External {
			continue
		}
		for i := range f.Blocks {
			b := &f.Blocks[i]
			src := r.liveReplica(*b, "")
			if src == "" {
				continue
			}
			holders, counted := map[string]bool{}, 0
			for _, x := range b.Replicas {
				if !r.dead[x] {
					holders[x] = true
					if !r.excluded[x] {
						counted++
					}
				}
			}
			var cands []string
			for _, id := range r.liveNodes() {
				if !holders[id] {
					cands = append(cands, id)
				}
			}
			for _, k := range r.draws.draw(len(cands), min(len(cands), max(target-counted, 0))) {
				dst := cands[k]
				r.cluster.Transfer(r.cluster.Node(src), r.cluster.Node(dst), b.SizeMB, func() {
					if r.cluster.Node(dst) != nil && !r.dead[dst] {
						b.Replicas = append(b.Replicas, dst)
					}
				})
			}
		}
	}
}

func (r *refFS) localFraction(paths []string, id string) float64 {
	var local, total float64
	for _, p := range paths {
		f, ok := r.files[p]
		if !ok {
			continue
		}
		total += f.SizeMB
		if f.External || r.dead[id] {
			continue
		}
		var fileLocal float64
		for _, b := range f.Blocks {
			if slices.Contains(b.Replicas, id) {
				fileLocal += b.SizeMB
			}
		}
		local += fileLocal
	}
	if total <= 0 {
		return 0
	}
	return local / total
}

func (r *refFS) candidateNodes(paths []string) []string {
	var out []string
	for _, p := range paths {
		f, ok := r.files[p]
		if !ok || f.External {
			continue
		}
		for _, b := range f.Blocks {
			for _, x := range b.Replicas {
				if !r.dead[x] && !slices.Contains(out, x) {
					out = append(out, x)
				}
			}
		}
	}
	return out
}

// readFlows is the reference's Read plan onto id: the remote flows in
// bytewise ID order, or ok false when a block has no live replica.
func (r *refFS) readFlows(id string, paths []string) (remote []nameMB, localMB float64, ok bool) {
	for _, p := range paths {
		f := r.files[p]
		if f.External {
			continue
		}
		for _, b := range f.Blocks {
			switch src := r.liveReplica(b, id); src {
			case "":
				return nil, 0, false
			case id:
				localMB += b.SizeMB
			default:
				i := 0
				for ; i < len(remote) && remote[i].node < src; i++ {
				}
				if i < len(remote) && remote[i].node == src {
					remote[i].mb += b.SizeMB
				} else {
					remote = slices.Insert(remote, i, nameMB{src, b.SizeMB})
				}
			}
		}
	}
	return remote, localMB, true
}

// TestSlotsMatchNameReference drives seeded membership histories through
// the FS and the name-keyed reference at once — puts from members, dead
// members and no writer; kills of members that stay (chaos); decommissions;
// Rereplicate; departures as autoscale takes them (KillNode, ForgetNode,
// Rereplicate, RemoveNode); joins under a fresh ID and rejoins under an old
// one — and after every step compares, bit for bit and in order: every
// block's replica IDs, the live nodes, LocalFraction on every member and on
// a departed ID, CandidateNodes, and the read flows onto every member.
// Seeds past 30 start above 100 nodes, where bytewise and CompareIDs order
// differ.
func TestSlotsMatchNameReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		if seed > 30 {
			n = 95 + rng.Intn(40)
		}
		eng, c := newTestCluster(t, n)
		refEng, refC := newTestCluster(t, n)
		cfg := Config{BlockSizeMB: float64(16 + rng.Intn(48)), Replication: 1 + rng.Intn(3)}
		if rng.Intn(3) == 0 {
			cfg.ExcludeNodes = []string{"node-00"}
		}
		fs := New(c, cfg, seed)
		ref := newRefFS(refC, fs.cfg, seed)
		spec := c.Nodes()[0].Spec
		var paths, departed []string
		run := func() {
			eng.Run()
			refEng.Run()
		}
		member := func() string {
			ids := nodeIDs(c)
			return ids[rng.Intn(len(ids))]
		}
		for step := 0; step < 80; step++ {
			var op string
			switch k := rng.Intn(10); {
			case k < 4 || len(paths) == 0:
				p := fmt.Sprintf("/f%d", len(paths))
				size := cfg.BlockSizeMB*float64(rng.Intn(4)) + 1 + rng.Float64()*cfg.BlockSizeMB
				writer := ""
				if rng.Intn(3) > 0 {
					writer = member()
				}
				op = fmt.Sprintf("Put(%s, %s)", p, writer)
				if rng.Intn(6) == 0 {
					fs.PutExternal(p, size)
					ref.files[p] = &refFile{SizeMB: size, External: true}
				} else {
					if _, err := fs.Put(p, size, writer); err != nil {
						t.Fatal(err)
					}
					ref.put(p, size, writer)
				}
				paths = append(paths, p)
			case k == 4:
				id := member()
				op = "KillNode " + id
				fs.KillNode(id)
				ref.dead[id] = true
			case k == 5:
				id := member()
				op = "DecommissionNode " + id
				fs.DecommissionNode(id)
				ref.excluded[id] = true
			case k == 6:
				op = "Rereplicate"
				fs.Rereplicate(func(int) {})
				ref.rereplicate()
				run()
			case k == 7 && c.Size() > 2:
				id := member()
				op = "leave " + id
				fs.KillNode(id)
				fs.ForgetNode(id)
				fs.Rereplicate(func(int) {})
				ref.dead[id] = true
				ref.forgetNode(id)
				ref.rereplicate()
				if err := c.RemoveNode(id); err != nil {
					t.Fatal(err)
				}
				refC.RemoveNode(id)
				departed = append(departed, id)
				run()
			case k >= 8:
				id := ""
				if len(departed) > 0 && rng.Intn(2) == 0 {
					i := rng.Intn(len(departed))
					id = departed[i]
					departed = slices.Delete(departed, i, i+1)
				}
				nd, err := c.AddNode(id, spec)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := refC.AddNode(id, spec); err != nil {
					t.Fatal(err)
				}
				op = fmt.Sprintf("join %s (slot %d)", nd.ID, nd.Slot)
			default:
				op = "none"
			}
			compareWithReference(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, op), fs, ref, rng, paths, departed)
		}
		run()
		compareWithReference(t, fmt.Sprintf("seed %d at the end", seed), fs, ref, rng, paths, departed)
		if a, b := fs.rng.Int63(), ref.draws.rng.Int63(); a != b {
			t.Fatalf("seed %d: placement rng streams diverged (%d, %d)", seed, a, b)
		}
	}
}

func compareWithReference(t *testing.T, where string, fs *FS, ref *refFS, rng *rand.Rand, paths, departed []string) {
	t.Helper()
	for _, p := range paths {
		f, g := fs.files[p], ref.files[p]
		for i, b := range f.Blocks {
			if got, want := replicaIDs(fs, b), g.Blocks[i].Replicas; !slices.Equal(got, want) {
				t.Fatalf("%s: %s block %d replicas %v, reference %v", where, p, i, got, want)
			}
		}
	}
	if got, want := slotIDs(fs.cluster, fs.liveNodes()), ref.liveNodes(); !slices.Equal(got, want) {
		t.Fatalf("%s: live nodes %v, reference %v", where, got, want)
	}
	for q := 0; q < 4; q++ {
		set := make([]string, 1+rng.Intn(4))
		for i := range set {
			set[i] = paths[rng.Intn(len(paths))]
		}
		if got, want := fs.CandidateNodes(set), ref.candidateNodes(set); !slices.Equal(got, want) {
			t.Fatalf("%s: CandidateNodes(%v) %v, reference %v", where, set, got, want)
		}
		for _, id := range append(slices.Clone(nodeIDs(fs.cluster)), departed...) {
			if got, want := fs.LocalFraction(set, id), ref.localFraction(set, id); got != want {
				t.Fatalf("%s: LocalFraction(%v, %s) = %v, reference %v", where, set, id, got, want)
			}
		}
		for _, node := range fs.cluster.Nodes() {
			flows, localMB, _, err := fs.readFlows(nil, node, set)
			want, wantLocal, ok := ref.readFlows(node.ID, set)
			if (err == nil) != ok {
				t.Fatalf("%s: read of %v onto %s: error %v, reference readable %v", where, set, node.ID, err, ok)
			}
			got := make([]nameMB, len(flows))
			for i, f := range flows {
				got[i] = nameMB{f.node.ID, f.mb}
			}
			if ok && (!slices.Equal(got, want) || localMB != wantLocal) {
				t.Fatalf("%s: read of %v onto %s: flows %v + %v MB local, reference %v + %v", where, set, node.ID, got, localMB, want, wantLocal)
			}
		}
	}
}

// TestRejoinTakesANewSlot pins what a slot is. A node that leaves the way
// autoscale takes it out (KillNode, ForgetNode, RemoveNode) and rejoins
// under its old ID is a new member: a new slot, no replica of the old
// instance, placeable again. A node that chaos kills (KillNode only) stays a
// member in its slot: its replicas stay listed, and none is readable.
func TestRejoinTakesANewSlot(t *testing.T) {
	eng, c := newTestCluster(t, 4)
	fs := New(c, Config{BlockSizeMB: 64, Replication: 2}, 1)
	if _, err := fs.Put("/a", 128, "node-01"); err != nil {
		t.Fatal(err)
	}
	fs.cfg.Replication = 1 // /solo's only replica is its writer's
	if _, err := fs.Put("/solo", 10, "node-02"); err != nil {
		t.Fatal(err)
	}
	fs.cfg.Replication = 2
	old := c.Node("node-01").Slot
	fs.KillNode("node-01")
	fs.ForgetNode("node-01")
	if err := c.RemoveNode("node-01"); err != nil {
		t.Fatal(err)
	}
	n, err := c.AddNode("node-01", c.Nodes()[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	if n.Slot == old || n.Slot != 4 || c.NodeAt(old) != nil {
		t.Fatalf("rejoined node-01 in slot %d (was %d, slot %d now holds %v); want slot 4 and slot %d empty", n.Slot, old, old, c.NodeAt(old), old)
	}
	f, _ := fs.Stat("/a")
	for i, b := range f.Blocks {
		if slices.Contains(b.Replicas, old) || slices.Contains(b.Replicas, n.Slot) {
			t.Fatalf("block %d of /a lists node-01 (slots %v) after it left and rejoined", i, b.Replicas)
		}
	}
	if got := fs.LocalFraction([]string{"/a"}, "node-01"); got != 0 {
		t.Fatalf("rejoined node-01 holds %v of /a, want 0", got)
	}
	if slices.Contains(fs.CandidateNodes([]string{"/a"}), "node-01") {
		t.Fatal("rejoined node-01 is a candidate for /a")
	}
	if !slices.Contains(fs.liveNodes(), n.Slot) {
		t.Fatal("rejoined node-01 takes no new replicas")
	}

	killed := c.Node("node-02")
	fs.KillNode("node-02")
	if c.Node("node-02") != killed || c.NodeAt(killed.Slot) != killed {
		t.Fatal("a chaos-killed node lost its slot")
	}
	g, _ := fs.Stat("/solo")
	if !slices.Contains(g.Blocks[0].Replicas, killed.Slot) {
		t.Fatalf("/solo's replica on the killed node is gone from its list %v", g.Blocks[0].Replicas)
	}
	if fs.Readable("/solo") || fs.LocalFraction([]string{"/solo"}, "node-02") != 0 ||
		slices.Contains(fs.CandidateNodes([]string{"/solo"}), "node-02") {
		t.Fatal("the killed node's only replica of /solo is still readable")
	}
	var readErr error
	fs.Read(c.Node("node-03"), []string{"/solo"}, func(err error) { readErr = err })
	eng.Run()
	if readErr == nil {
		t.Fatal("a read of /solo succeeded from a killed node's replica")
	}
}
