package recipes

import (
	"testing"

	"hiway/internal/cluster"
	"hiway/internal/workloads"
)

func valid() *Recipe {
	return &Recipe{
		Name:       "test-cluster",
		Groups:     []NodeGroup{{Count: 2, Spec: cluster.M3Large()}, {Count: 1, Spec: cluster.C32XLarge()}},
		SwitchMBps: 1000,
		Seed:       7,
		Inputs: []workloads.Input{
			{Path: "/in/a", SizeMB: 10},
			{Path: "/s3/b", SizeMB: 5, External: true},
		},
	}
}

func TestMaterialize(t *testing.T) {
	eng, env, err := valid().Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if eng == nil || env.Cluster.Size() != 3 {
		t.Fatalf("cluster size = %d", env.Cluster.Size())
	}
	if !env.FS.Exists("/in/a") || !env.FS.Exists("/s3/b") {
		t.Fatal("inputs not staged")
	}
	if env.RM == nil || env.Prov == nil {
		t.Fatal("env incomplete")
	}
	// Heterogeneous specs preserved in order.
	if env.Cluster.Node("node-02").Spec.VCores != 8 {
		t.Fatalf("third node spec = %+v", env.Cluster.Node("node-02").Spec)
	}
}

func TestValidateRejectsBadRecipes(t *testing.T) {
	cases := map[string]func(*Recipe){
		"no name":    func(r *Recipe) { r.Name = "" },
		"no groups":  func(r *Recipe) { r.Groups = nil },
		"zero count": func(r *Recipe) { r.Groups[0].Count = 0 },
		"bad spec":   func(r *Recipe) { r.Groups[0].Spec.VCores = 0 },
		"no switch":  func(r *Recipe) { r.SwitchMBps = 0 },
	}
	for name, mutate := range cases {
		r := valid()
		mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}
