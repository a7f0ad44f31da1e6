package experiments

import (
	"fmt"
	"math/rand"

	"hiway/internal/baseline/cloudman"
	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

// Fig8Options parameterizes the RNA-seq performance experiment (§4.2): the
// TRAPLINE workflow (degree of parallelism six) on c3.2xlarge clusters of
// one to six nodes, Hi-WAY (HDFS on transient local SSDs) vs Galaxy
// CloudMan (Slurm + a shared EBS volume), one task per node, five runs.
type Fig8Options struct {
	Sizes []int // default {1,2,3,4,6}, the paper's cluster sizes
	Runs  int   // default 5
}

// The fixed setup of Fig. 8.
const (
	// fig8VolumeMBps is CloudMan's shared EBS volume: a standard magnetic
	// volume of the m3/c3 era sustained a few tens of MB/s — the storage
	// bottleneck the paper identifies.
	fig8VolumeMBps = 18
	fig8Jitter     = 0.04
	fig8Seed       = 63
)

func (o *Fig8Options) setDefaults() {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{1, 2, 3, 4, 6}
	}
	if o.Runs <= 0 {
		o.Runs = 5
	}
}

// Fig8Row is one cluster size.
type Fig8Row struct {
	Nodes                    int
	HiWayMin, HiWayStd       float64
	CloudManMin, CloudManStd float64
	SpeedupPct               float64 // how much faster Hi-WAY is
}

// Fig8Result holds the figure.
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8 runs the experiment.
func Fig8(opt Fig8Options) (*Fig8Result, error) {
	opt.setDefaults()
	res := &Fig8Result{}
	for _, nodes := range opt.Sizes {
		var hw, cm []float64
		for run := 0; run < opt.Runs; run++ {
			seed := fig8Seed + int64(nodes*100+run)

			h, err := fig8HiWay(nodes, seed)
			if err != nil {
				return nil, fmt.Errorf("fig8: hiway @%d nodes: %w", nodes, err)
			}
			hw = append(hw, h)

			c, err := fig8CloudMan(nodes, seed)
			if err != nil {
				return nil, fmt.Errorf("fig8: cloudman @%d nodes: %w", nodes, err)
			}
			cm = append(cm, c)
		}
		hm, hs := stats(hw)
		cmM, cmS := stats(cm)
		res.Rows = append(res.Rows, Fig8Row{
			Nodes:    nodes,
			HiWayMin: hm, HiWayStd: hs,
			CloudManMin: cmM, CloudManStd: cmS,
			SpeedupPct: (cmM - hm) / hm * 100,
		})
	}
	return res, nil
}

// fig8HiWay runs TRAPLINE on Hi-WAY: the workflow arrives as a Galaxy
// export (as in the paper, which executed Wolfien et al.'s published
// Galaxy workflow), with HDFS over local SSDs, data-aware scheduling, and
// one big container per node.
func fig8HiWay(nodes int, seed int64) (float64, error) {
	driver, inputs, err := workloads.TRAPLINEFromGalaxy(workloads.TRAPLINEConfig{})
	if err != nil {
		return 0, err
	}
	r := &recipes.Recipe{
		Name:       fmt.Sprintf("fig8-hiway-%d", nodes),
		Groups:     []recipes.NodeGroup{{Count: nodes, Spec: cluster.C32XLarge()}},
		SwitchMBps: 4000,
		HDFS:       hdfs.Config{BlockSizeMB: 1024, Replication: min(3, nodes)},
		// A zero-vcore AM (a thin JVM) lets the full 8-core worker
		// container still fit on the same node — required for the
		// single-node cluster, where AM and tools share the machine.
		YARN: yarn.Config{AMResource: yarn.Resource{VCores: 0, MemMB: 512}},
		Seed: seed,
	}
	r.Inputs = inputs
	e, err := buildEnv(r, nil)
	if err != nil {
		return 0, err
	}
	if _, err := driver.Parse(); err != nil {
		return 0, err
	}
	jitterTasks(driver, rand.New(rand.NewSource(seed)), fig8Jitter)
	rep, err := core.Run(e.Env, reparse(driver), scheduler.NewDataAware(e.FS), core.Config{
		ContainerVCores: 8, ContainerMemMB: 14000,
	})
	if err != nil {
		return 0, err
	}
	return rep.MakespanSec / 60, nil
}

// fig8CloudMan runs the same workflow on the CloudMan baseline: full-node
// tools, Slurm-style FCFS, everything stored on the shared volume.
func fig8CloudMan(nodes int, seed int64) (float64, error) {
	driver, inputs := workloads.TRAPLINE(workloads.TRAPLINEConfig{})
	r := &recipes.Recipe{
		Name:       fmt.Sprintf("fig8-cloudman-%d", nodes),
		Groups:     []recipes.NodeGroup{{Count: nodes, Spec: cluster.C32XLarge()}},
		SwitchMBps: 4000,
		Seed:       seed,
	}
	e, err := buildEnv(r, nil)
	if err != nil {
		return 0, err
	}
	if _, err := driver.Parse(); err != nil {
		return 0, err
	}
	jitterTasks(driver, rand.New(rand.NewSource(seed)), fig8Jitter)
	rep, err := cloudman.Run(e.Cluster, reparse(driver), cloudman.Config{
		VolumeMBps:   fig8VolumeMBps,
		InputSizesMB: workloads.InputSizes(inputs),
	})
	if err != nil {
		return 0, err
	}
	return rep.MakespanSec / 60, nil
}

// Render prints the figure as a text table.
func (r *Fig8Result) Render() string {
	headers := []string{"nodes", "Hi-WAY (min)", "±std", "CloudMan (min)", "±std", "Hi-WAY faster by"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprint(row.Nodes),
			fmt.Sprintf("%.1f", row.HiWayMin), fmt.Sprintf("%.1f", row.HiWayStd),
			fmt.Sprintf("%.1f", row.CloudManMin), fmt.Sprintf("%.1f", row.CloudManStd),
			fmt.Sprintf("%.0f%%", row.SpeedupPct),
		})
	}
	return "Fig. 8 — RNA-seq TRAPLINE, average runtime on Hi-WAY vs Galaxy CloudMan (log-log in the paper)\n" +
		table(headers, rows)
}
