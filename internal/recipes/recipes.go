// Package recipes provides declarative, machine-readable descriptions of
// execution infrastructures and workflow input data — the stand-in for the
// paper's Chef recipes orchestrated via Karamel (§3.6). A recipe captures
// everything needed to reproduce an experiment: the cluster (node groups,
// switch), the Hadoop configuration (HDFS block size/replication, YARN AM
// container size and tenant policies), and the input data to stage.
// Materialize turns a recipe into a ready-to-run environment.
package recipes

import (
	"fmt"

	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/provenance"
	"hiway/internal/sim"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

// NodeGroup declares a homogeneous group of nodes.
type NodeGroup struct {
	Count int              `json:"count"`
	Spec  cluster.NodeSpec `json:"spec"`
}

// Recipe declares one reproducible setup.
type Recipe struct {
	Name                string            `json:"name"`
	Groups              []NodeGroup       `json:"groups"`
	SwitchMBps          float64           `json:"switchMBps"`
	ExternalPerFlowMBps float64           `json:"externalPerFlowMBps,omitempty"`
	HDFS                hdfs.Config       `json:"hdfs"`
	YARN                yarn.Config       `json:"yarn"`
	Seed                int64             `json:"seed"`
	Inputs              []workloads.Input `json:"inputs,omitempty"`
}

// Validate reports the first problem with the recipe.
func (r *Recipe) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("recipes: recipe needs a name")
	}
	if len(r.Groups) == 0 {
		return fmt.Errorf("recipes: recipe %q declares no node groups", r.Name)
	}
	total := 0
	for i, g := range r.Groups {
		if g.Count <= 0 {
			return fmt.Errorf("recipes: group %d of %q has count %d", i, r.Name, g.Count)
		}
		if err := g.Spec.Validate(); err != nil {
			return fmt.Errorf("recipes: group %d of %q: %w", i, r.Name, err)
		}
		total += g.Count
	}
	if total == 0 {
		return fmt.Errorf("recipes: recipe %q has no nodes", r.Name)
	}
	if r.SwitchMBps <= 0 {
		return fmt.Errorf("recipes: recipe %q needs positive switch bandwidth", r.Name)
	}
	return nil
}

// Materialize builds the simulated infrastructure the recipe describes and
// stages its input data: engine, cluster, HDFS, YARN, and an in-memory
// provenance manager (callers may swap the store).
func (r *Recipe) Materialize() (*sim.Engine, core.Env, error) {
	if err := r.Validate(); err != nil {
		return nil, core.Env{}, err
	}
	eng := sim.NewEngine()
	var specs []cluster.NodeSpec
	for _, g := range r.Groups {
		for i := 0; i < g.Count; i++ {
			specs = append(specs, g.Spec)
		}
	}
	cl, err := cluster.New(eng, cluster.Config{
		SwitchMBps:          r.SwitchMBps,
		ExternalPerFlowMBps: r.ExternalPerFlowMBps,
	}, specs)
	if err != nil {
		return nil, core.Env{}, err
	}
	fs := hdfs.New(cl, r.HDFS, r.Seed)
	rm := yarn.NewResourceManager(eng, cl, r.YARN)
	prov, err := provenance.NewManager(provenance.NewMemStore())
	if err != nil {
		return nil, core.Env{}, err
	}
	if err := workloads.Stage(fs, r.Inputs); err != nil {
		return nil, core.Env{}, err
	}
	return eng, core.Env{Cluster: cl, FS: fs, RM: rm, Prov: prov}, nil
}
