// k-means: the paper's showcase for iterative workflows (§3.3). The
// Cuneiform workflow below contains an unbounded loop — assignment and
// update steps repeat until a convergence check emits an empty list — so
// its task graph cannot be known upfront; only Hi-WAY's dynamic Workflow
// Driver (not static schedulers) can execute it.
//
// The workflow runs on the simulated cluster; a Behavior hook stands in
// for the real clustering tool and reaches convergence after a configured
// number of refinements.
//
//	go run ./examples/kmeans
package main

import (
	"fmt"
	"log"
	"maps"

	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/lang/cuneiform"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/wf"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

func main() {
	const convergeAfter = 5

	src := workloads.KMeansCuneiform("/data/points.csv", 3)
	driver := cuneiform.NewDriver("kmeans", src)

	r := &recipes.Recipe{
		Name:       "kmeans-cluster",
		Groups:     []recipes.NodeGroup{{Count: 4, Spec: cluster.M3Large()}},
		SwitchMBps: 2000,
		HDFS:       hdfs.Config{},
		YARN:       yarn.Config{},
		Seed:       7,
		Inputs:     []workloads.Input{{Path: "/data/points.csv", SizeMB: 250}},
	}
	_, env, err := r.Materialize()
	if err != nil {
		log.Fatal(err)
	}

	// The convergence check is a black box to the engine: it signals
	// "keep iterating" by producing a non-empty aggregate output.
	iterations := 0
	behavior := func(t *wf.Task) wf.Outcome {
		out := wf.DefaultOutcome(t)
		if t.Name == "converged" {
			out.Outputs = maps.Clone(out.Outputs) // DefaultOutcome's map is the declaration
			iterations++
			if iterations <= convergeAfter {
				out.Outputs["flag"] = []wf.FileInfo{{Path: fmt.Sprintf("/data/flag-%d", t.ID), SizeMB: 0.01}}
			} else {
				out.Outputs["flag"] = nil // empty list: converged
			}
		}
		return out
	}

	rep, err := core.Run(env, driver, scheduler.NewDataAware(env.FS), core.Config{
		ContainerVCores: 2, ContainerMemMB: 4096,
		Behavior: behavior,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("k-means converged after %d refinement iterations\n", convergeAfter)
	fmt.Printf("executed %d dynamically discovered tasks in %.1fs simulated time\n",
		len(rep.Results), rep.MakespanSec)
	byName := map[string]int{}
	for _, res := range rep.Results {
		byName[res.Task.Name]++
	}
	for _, name := range []string{"init", "assign", "update", "converged"} {
		fmt.Printf("  %-10s × %d\n", name, byName[name])
	}
	fmt.Println("final centroids:", rep.Outputs)
}
