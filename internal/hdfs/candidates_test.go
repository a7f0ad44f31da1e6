package hdfs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// candidateNodesRef is the set-based CandidateNodes: a seen map and a fresh
// slice per call. It stays as the reference the buffered linear scan is
// driven against.
func candidateNodesRef(fs *FS, paths []string) []string {
	var out []string
	seen := make(map[int32]bool)
	for _, p := range paths {
		f, ok := fs.files[p]
		if !ok || f.External {
			continue
		}
		for _, b := range f.Blocks {
			for _, r := range b.Replicas {
				if !seen[r] && !fs.has(r, dead) {
					seen[r] = true
					out = append(out, fs.cluster.NodeAt(r).ID)
				}
			}
		}
	}
	return out
}

// TestCandidateNodesMatchesReference compares CandidateNodes with the
// set-based reference element for element, in order, over seeded layouts:
// multi-block files at replication 1–3, external files, paths that do not
// exist, repeated paths, and nodes killed, decommissioned or forgotten
// between queries.
func TestCandidateNodesMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		_, c := newTestCluster(t, n)
		nodes := nodeIDs(c)
		fs := New(c, Config{BlockSizeMB: float64(8 + rng.Intn(56)), Replication: 1 + rng.Intn(3)}, seed)
		var paths []string
		for i := 0; i < 30; i++ {
			p := fmt.Sprintf("/f%d", i)
			paths = append(paths, p, fmt.Sprintf("/missing%d", i))
			if rng.Intn(5) == 0 {
				fs.PutExternal(p, float64(1+rng.Intn(300)))
				continue
			}
			writer := ""
			if rng.Intn(2) == 0 {
				writer = nodes[rng.Intn(n)]
			}
			if _, err := fs.Put(p, float64(1+rng.Intn(300)), writer); err != nil {
				t.Fatal(err)
			}
		}
		for q := 0; q < 200; q++ {
			if q%40 == 39 {
				node := nodes[rng.Intn(n)]
				switch rng.Intn(3) {
				case 0:
					fs.KillNode(node)
				case 1:
					fs.DecommissionNode(node)
				default:
					fs.ForgetNode(node)
				}
			}
			query := make([]string, rng.Intn(6))
			for i := range query {
				query[i] = paths[rng.Intn(len(paths))]
			}
			want := candidateNodesRef(fs, query)
			if got := fs.CandidateNodes(query); !slices.Equal(got, want) {
				t.Fatalf("seed %d query %d %v: CandidateNodes %v, reference %v", seed, q, query, got, want)
			}
		}
	}
}

// TestCandidateNodesReusesItsBuffer pins that a lookup allocates nothing
// once the buffer has grown to the largest answer.
func TestCandidateNodesReusesItsBuffer(t *testing.T) {
	_, c := newTestCluster(t, 8)
	fs := New(c, Config{BlockSizeMB: 16, Replication: 3}, 1)
	for i := 0; i < 4; i++ {
		if _, err := fs.Put(fmt.Sprintf("/in/%d", i), 100, ""); err != nil {
			t.Fatal(err)
		}
	}
	query := []string{"/in/0", "/in/1", "/in/2", "/in/3", "/in/none"}
	fs.CandidateNodes(query)
	if n := testing.AllocsPerRun(100, func() { fs.CandidateNodes(query) }); n != 0 {
		t.Fatalf("CandidateNodes allocates %.0f times per call", n)
	}
}
