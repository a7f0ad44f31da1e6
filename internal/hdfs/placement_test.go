package hdfs

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hiway/internal/cluster"
)

// shuffled is the reference for draw: the permutation rand.Shuffle makes of
// 0..n-1 on rng.
func shuffled(rng *rand.Rand, n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// checkDraw compares draw(n, k) on fs with rand.Shuffle on twin, which
// starts at the same stream position: the first k positions, then the
// next four values of both streams.
func checkDraw(t *testing.T, where string, fs *FS, twin *rand.Rand, n, k int) {
	t.Helper()
	got := slices.Clone(fs.draw(n, k))
	if want := shuffled(twin, n)[:k]; !slices.Equal(got, want) {
		t.Fatalf("%s: draw(%d, %d) = %v, Shuffle's first %d = %v", where, n, k, got, k, want)
	}
	for i := 0; i < 4; i++ {
		if a, b := fs.rng.Int63(), twin.Int63(); a != b {
			t.Fatalf("%s: stream value %d after the draw is %d, after Shuffle %d", where, i, a, b)
		}
	}
}

func TestDrawMatchesShuffle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 34, 130, 255, 256, 1024} {
		for k := 0; k <= min(n, 4); k++ {
			for seed := int64(1); seed <= 50; seed++ {
				fs := &FS{rng: rand.New(rand.NewSource(seed))}
				twin := rand.New(rand.NewSource(seed))
				checkDraw(t, fmt.Sprintf("n=%d k=%d seed=%d", n, k, seed), fs, twin, n, k)
			}
		}
	}
}

// scriptedSource returns its scripted values first, then the seeded
// stream, and counts the values it hands out.
type scriptedSource struct {
	script []int64
	calls  int
	rand.Source
}

func (s *scriptedSource) Int63() int64 {
	s.calls++
	if len(s.script) > 0 {
		v := s.script[0]
		s.script = s.script[1:]
		return v
	}
	return s.Source.Int63()
}

// TestDrawRejectionMatchesShuffle forces int31n's rejection loop, which no
// seeded stream reaches in practice: for n = 3 the first bound is 3, whose
// threshold (2³²−3) mod 3 is 1, so a Uint32 of 0 (an Int63 of 0) is
// rejected and one more value is drawn.
func TestDrawRejectionMatchesShuffle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		src := &scriptedSource{script: []int64{0}, Source: rand.NewSource(seed)}
		twinSrc := &scriptedSource{script: []int64{0}, Source: rand.NewSource(seed)}
		fs := &FS{rng: rand.New(src)}
		checkDraw(t, fmt.Sprintf("seed=%d", seed), fs, rand.New(twinSrc), 3, 3)
		// Two Fisher–Yates steps, one rejected value, four compared values.
		if src.calls != 2+1+4 || twinSrc.calls != src.calls {
			t.Fatalf("seed %d: draw used %d values and Shuffle %d, want %d", seed, src.calls, twinSrc.calls, 2+1+4)
		}
	}
}

// referenceReadFlows is Read's flow plan as a map of per-source bytes
// whose keys, the sources' IDs, are then sorted.
func referenceReadFlows(fs *FS, node *cluster.Node, paths []string) []peerMB {
	remote := make(map[string]float64)
	for _, p := range paths {
		f := fs.files[p]
		if f.External {
			continue
		}
		for _, b := range f.Blocks {
			if src := fs.liveReplica(b, node.Slot); src != node {
				remote[src.ID] += b.SizeMB
			}
		}
	}
	return sortedFlows(fs, remote)
}

// referenceWriteFlows is Write's flow plan as a map of per-peer bytes whose
// keys, the peers' IDs, are then sorted.
func referenceWriteFlows(fs *FS, f *File, node *cluster.Node) []peerMB {
	perPeer := make(map[string]float64)
	for _, b := range f.Blocks {
		for _, r := range b.Replicas {
			if r != node.Slot {
				perPeer[fs.cluster.NodeAt(r).ID] += b.SizeMB
			}
		}
	}
	return sortedFlows(fs, perPeer)
}

// referenceLocalFraction is LocalFraction with each file's local MB summed
// on its own before it is added, as the per-file lookup it replaced did.
func referenceLocalFraction(fs *FS, paths []string, nodeID string) float64 {
	var local, total float64
	n := fs.cluster.Node(nodeID)
	for _, p := range paths {
		f := fs.files[p]
		total += f.SizeMB
		var fileLocal float64
		for _, b := range f.Blocks {
			if !f.External && n != nil && !fs.has(n.Slot, dead) && slices.Contains(b.Replicas, n.Slot) {
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

// sortedFlows lists per-ID bytes as flows in sorted ID order.
func sortedFlows(fs *FS, m map[string]float64) []peerMB {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]peerMB, 0, len(keys))
	for _, k := range keys {
		n := fs.cluster.Node(k)
		out = append(out, peerMB{n, fs.cluster.ByteRank(n.Slot), m[k]})
	}
	return out
}

// TestFlowPlansMatchMapReference checks that the flows Read and Write
// submit to the switch, as (peer, MB) in submission order, are the ones
// the per-call map plus sorted keys gave: over seeded files of 1–6 blocks
// on 3–300 nodes, written from nodes that hold a replica or by no node,
// with nodes dying in between. The MB must be equal as floats, so the sums
// must be formed in the same order; so must LocalFraction's.
func TestFlowPlansMatchMapReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 3 + rng.Intn(298)
		_, c := newTestCluster(t, nodes)
		fs := New(c, Config{BlockSizeMB: 16, Replication: 1 + rng.Intn(3)}, seed)
		ids := nodeIDs(c)
		var paths []string
		for i := 0; i < 24; i++ {
			writer := ""
			if rng.Intn(4) > 0 {
				writer = ids[rng.Intn(len(ids))]
			}
			p := fmt.Sprintf("/f%d", i)
			// 1–6 blocks, the last one usually partial.
			f, err := fs.Put(p, 16*float64(rng.Intn(6))+1+rng.Float64()*15, writer)
			if err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
			if writer != "" {
				if got, want := fs.writeFlows(nil, f, c.Node(writer)), referenceWriteFlows(fs, f, c.Node(writer)); !slices.Equal(got, want) {
					t.Fatalf("seed %d %s from %s: write flows %v, reference %v", seed, p, writer, got, want)
				}
			}
			if rng.Intn(8) == 0 {
				fs.KillNode(ids[rng.Intn(len(ids))])
			}
		}
		for r := 0; r < 60; r++ {
			reader := ids[rng.Intn(len(ids))]
			var set []string
			for _, i := range rng.Perm(len(paths))[:1+rng.Intn(4)] {
				set = append(set, paths[i])
			}
			if got, want := fs.LocalFraction(set, reader), referenceLocalFraction(fs, set, reader); got != want {
				t.Fatalf("seed %d LocalFraction(%v, %s) = %v, reference %v", seed, set, reader, got, want)
			}
			got, _, _, err := fs.readFlows(nil, c.Node(reader), set)
			if err != nil {
				continue // a block lost every replica; Read fails it as a whole
			}
			if want := referenceReadFlows(fs, c.Node(reader), set); !slices.Equal(got, want) {
				t.Fatalf("seed %d read %v onto %s: flows %v, reference %v", seed, set, reader, got, want)
			}
		}
	}
}
