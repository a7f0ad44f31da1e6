// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the simulated substrate:
//
//	Table 1 — overview of the conducted experiments;
//	Fig. 4  — SNV calling, Hi-WAY vs Tez, 24-node cluster, 72–576 containers;
//	Table 2 / Fig. 5 — SNV weak scaling, 1–128 workers, 8 GB–1 TB;
//	Fig. 6  — master/worker resource utilization while scaling;
//	Fig. 8  — RNA-seq TRAPLINE, Hi-WAY vs Galaxy CloudMan, 1–6 nodes;
//	Fig. 9  — Montage, HEFT vs FCFS with growing provenance.
//
// Absolute numbers need not match the paper (the substrate is a simulator,
// not the authors' testbed); the shapes — who wins, by what factor, where
// crossovers fall — are the reproduction target and are asserted by this
// package's tests.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"hiway/internal/core"
	"hiway/internal/provenance"
	"hiway/internal/recipes"
	"hiway/internal/sim"
	"hiway/internal/wf"
	"hiway/internal/yarn"
)

// env bundles one materialized infrastructure.
type env struct {
	eng *sim.Engine
	core.Env
}

// buildEnv materializes a recipe, optionally replacing the provenance store.
func buildEnv(r *recipes.Recipe, store provenance.Store) (*env, error) {
	eng, ce, err := r.Materialize()
	if err != nil {
		return nil, err
	}
	if store != nil {
		mgr, err := provenance.NewManager(store)
		if err != nil {
			return nil, err
		}
		ce.Prov = mgr
	}
	return &env{eng: eng, Env: ce}, nil
}

// jitterTasks multiplies each task's CPU demand by a random factor around
// 1.0 — the stand-in for run-to-run variance on real hardware (the paper
// reports standard deviations across repeated runs).
func jitterTasks(d wf.StaticDriver, rng *rand.Rand, spread float64) {
	if spread <= 0 {
		return
	}
	for _, t := range d.Graph().All() {
		f := 1 + (rng.Float64()*2-1)*spread
		t.CPUSeconds *= f
	}
}

// stats computes mean and standard deviation.
func stats(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// median returns the middle value (mean of the middle two for even sizes).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// table renders rows as an aligned text table.
func table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

// amConfig is a YARN config whose AM container exactly fills the master
// node's free memory headroom used by the experiments.
func amConfig() yarn.Config {
	return yarn.Config{AMResource: yarn.Resource{VCores: 1, MemMB: 1024}}
}
