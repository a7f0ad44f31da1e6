package hdfs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// liveModel tracks, independently of FS, which nodes the namespace has
// been told are dead or excluded, and draws placements from its own copy
// of the placement rng.
type liveModel struct {
	dead, excluded map[string]bool
	rng            *rand.Rand
}

// live is liveNodes from scratch: the cluster's members in ID order, less
// the dead and excluded ones.
func (m *liveModel) live(fs *FS) []string {
	var out []string
	for _, n := range fs.cluster.Nodes() {
		if !m.dead[n.ID] && !m.excluded[n.ID] {
			out = append(out, n.ID)
		}
	}
	return out
}

// place is placeReplicas over live: the writer first when it may hold a
// replica, then the rest of a full shuffle of the other live nodes.
func (m *liveModel) place(fs *FS, writer string) []string {
	var reps, cands []string
	if writer != "" && !m.dead[writer] && !m.excluded[writer] {
		reps = append(reps, writer)
	}
	for _, id := range m.live(fs) {
		if id != writer {
			cands = append(cands, id)
		}
	}
	m.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	for _, id := range cands {
		if len(reps) >= fs.cfg.Replication {
			break
		}
		reps = append(reps, id)
	}
	return reps
}

// TestLiveNodesMatchesFromScratchFilter drives seeded sequences of AddNode,
// RemoveNode, KillNode, DecommissionNode and ForgetNode, and after every
// step compares liveNodes with a from-scratch filter of cluster.Nodes() and
// placeReplicas with a placement drawn from a model rng on the same seed —
// so the placement rng stream is compared too.
func TestLiveNodesMatchesFromScratchFilter(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		_, c := newTestCluster(t, n)
		cfg := Config{Replication: 1 + rng.Intn(3)}
		if rng.Intn(3) == 0 {
			cfg.ExcludeNodes = []string{"node-00"}
		}
		fs := New(c, cfg, seed)
		m := &liveModel{dead: map[string]bool{}, excluded: map[string]bool{}, rng: rand.New(rand.NewSource(seed))}
		for _, id := range cfg.ExcludeNodes {
			m.excluded[id] = true
		}
		known := slices.Clone(c.NodeIDs()) // every ID ever a member
		for step := 0; step < 120; step++ {
			id := known[rng.Intn(len(known))]
			var op string
			switch rng.Intn(6) {
			case 0:
				op = "AddNode"
				if c.Node(id) != nil {
					id = ""
				}
				nd, err := c.AddNode(id, c.Nodes()[0].Spec)
				if err != nil {
					t.Fatal(err)
				}
				if id == "" {
					known = append(known, nd.ID)
				}
				id = nd.ID
			case 1:
				op = "RemoveNode"
				if c.Size() > 1 && c.Node(id) != nil {
					if err := c.RemoveNode(id); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				op = "KillNode"
				fs.KillNode(id)
				m.dead[id] = true
			case 3:
				op = "DecommissionNode"
				fs.DecommissionNode(id)
				m.excluded[id] = true
			case 4:
				op = "ForgetNode"
				fs.ForgetNode(id)
				delete(m.dead, id)
				delete(m.excluded, id)
			default:
				op = "none"
			}
			where := fmt.Sprintf("seed %d step %d (%s %s)", seed, step, op, id)
			if got, want := fs.liveNodes(), m.live(fs); !slices.Equal(got, want) {
				t.Fatalf("%s: liveNodes %v, from scratch %v", where, got, want)
			}
			for k := 0; k < 2; k++ {
				writer := ""
				if rng.Intn(2) == 0 {
					members := c.NodeIDs()
					writer = members[rng.Intn(len(members))]
				}
				if got, want := fs.placeReplicas(writer), m.place(fs, writer); !slices.Equal(got, want) {
					t.Fatalf("%s: placeReplicas(%q) %v, model %v", where, writer, got, want)
				}
			}
		}
	}
}
