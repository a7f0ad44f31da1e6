package experiments

import (
	"fmt"
	"math/rand"

	"hiway/internal/baseline/tez"
	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/wf"
	"hiway/internal/workloads"
)

// Fig4Options parameterizes the first scalability experiment (§4.1): the
// SNV-calling workflow on a 24-node local cluster (two Xeon E5-2620 per
// node, one shared gigabit switch), Hi-WAY with data-aware scheduling vs a
// Tez-like DAG engine, with 72–576 one-core containers.
type Fig4Options struct {
	Containers []int // default {72, 144, 288, 576}
	Runs       int   // repetitions per point; default 3
}

// The fixed setup of Fig. 4.
const (
	fig4Samples    = 24   // genomic samples
	fig4Nodes      = 24   // cluster size
	fig4SwitchMBps = 400  // the oversubscribed 1 GbE switch
	fig4Jitter     = 0.04 // CPU-time spread per run
	fig4Seed       = 41
)

func (o *Fig4Options) setDefaults() {
	if len(o.Containers) == 0 {
		o.Containers = []int{72, 144, 288, 576}
	}
	if o.Runs <= 0 {
		o.Runs = 3
	}
}

// Fig4Point is one x-position of Fig. 4 (means ± std over the runs).
type Fig4Point struct {
	Containers         int
	HiWayMin, HiWayStd float64
	TezMin, TezStd     float64
	HiWayLocalFrac     float64 // mean local-read fraction of alignments (diagnostic)
}

// Fig4Result holds the whole figure.
type Fig4Result struct {
	Points []Fig4Point
}

// Fig4 runs the experiment.
func Fig4(opt Fig4Options) (*Fig4Result, error) {
	opt.setDefaults()
	res := &Fig4Result{}
	for _, containers := range opt.Containers {
		perNode := containers / fig4Nodes
		if perNode < 1 {
			perNode = 1
		}
		var hiwayT, tezT, localFracs []float64
		for run := 0; run < opt.Runs; run++ {
			seed := fig4Seed + int64(containers*100+run)

			// Hi-WAY executes the workflow from Cuneiform source, as the
			// paper did ("we implemented this workflow in both Cuneiform
			// and Tez"): the per-region calls are discovered dynamically
			// when each sample's sort/scatter resolves.
			cfg := fig4WorkloadConfig()
			jitterSNVConfig(&cfg, rand.New(rand.NewSource(seed)), fig4Jitter)
			driver, inputs, behavior := workloads.SNVCuneiformDriver("snv-fig4", cfg)
			r := fig4Recipe(perNode, seed)
			r.Inputs = inputs
			e, err := buildEnv(r, nil)
			if err != nil {
				return nil, err
			}
			rep, err := core.Run(e.Env, driver, scheduler.NewDataAware(e.FS), core.Config{
				ContainerVCores: 1, ContainerMemMB: 1024,
				Behavior: behavior,
			})
			if err != nil {
				return nil, fmt.Errorf("fig4: hiway @%d containers: %w", containers, err)
			}
			hiwayT = append(hiwayT, rep.MakespanSec/60)
			localFracs = append(localFracs, localReadFraction(rep, e.FS))

			e2, driver2, err := fig4Setup(perNode, seed)
			if err != nil {
				return nil, err
			}
			rep2, err := tez.Run(e2.Env, driver2, tez.Config{Containers: containers})
			if err != nil {
				return nil, fmt.Errorf("fig4: tez @%d containers: %w", containers, err)
			}
			tezT = append(tezT, rep2.MakespanSec/60)
		}
		hm, hs := stats(hiwayT)
		tm, ts := stats(tezT)
		lf, _ := stats(localFracs)
		res.Points = append(res.Points, Fig4Point{
			Containers: containers,
			HiWayMin:   hm, HiWayStd: hs,
			TezMin: tm, TezStd: ts,
			HiWayLocalFrac: lf,
		})
	}
	return res, nil
}

// fig4WorkloadConfig is the shared workload shape: finer-grained than the
// weak-scaling experiment — 24 read files per sample and chromosome-split
// variant calling — so the critical path stays short enough for 576-way
// parallelism.
func fig4WorkloadConfig() workloads.SNVConfig {
	return workloads.SNVConfig{
		Samples:            fig4Samples,
		FilesPerSample:     24,
		FileSizeMB:         340,
		CallSplitRegions:   16,
		AlignCPUSeconds:    600,
		SortCPUSeconds:     400,
		CallCPUSeconds:     800,
		AnnotateCPUSeconds: 600,
		RefLocal:           true, // reference data installed on all nodes (§3.6)
	}
}

// jitterSNVConfig perturbs the per-tool CPU demands — the Cuneiform path
// jitters the workload definition, since task attributes live in the
// source text.
func jitterSNVConfig(cfg *workloads.SNVConfig, rng *rand.Rand, spread float64) {
	cfg.ApplyDefaults() // jitter the effective values, not the zero ones
	j := func(v float64) float64 { return v * jitterFactor(rng, spread) }
	cfg.AlignCPUSeconds = j(cfg.AlignCPUSeconds)
	cfg.SortCPUSeconds = j(cfg.SortCPUSeconds)
	cfg.CallCPUSeconds = j(cfg.CallCPUSeconds)
	cfg.AnnotateCPUSeconds = j(cfg.AnnotateCPUSeconds)
}

// fig4Setup materializes the cluster, stages the SNV inputs into HDFS, and
// generates a fresh jittered static workflow (the Tez arm's native
// implementation).
func fig4Setup(perNode int, seed int64) (*env, wf.StaticDriver, error) {
	driver, inputs := workloads.SNV(fig4WorkloadConfig())
	r := fig4Recipe(perNode, seed)
	r.Inputs = inputs
	e, err := buildEnv(r, nil)
	if err != nil {
		return nil, nil, err
	}
	if _, err := driver.Parse(); err != nil {
		return nil, nil, err
	}
	jitterTasks(driver, rand.New(rand.NewSource(seed)), fig4Jitter)
	// Re-wrap: core.Run parses again, so hand it a pre-built base with the
	// same (jittered) graph.
	return e, reparse(driver), nil
}

// reparse wraps an already-parsed static driver so the engine's own Parse
// call returns the same task graph (jitter applied once, upfront).
func reparse(d wf.StaticDriver) wf.StaticDriver {
	g := d.Graph()
	sb := &wf.StaticBase{WFName: d.Name()}
	sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
		var edges []wf.Edge
		for _, t := range g.All() {
			for _, p := range g.Predecessors(t) {
				edges = append(edges, wf.Edge{Parent: p.ID, Child: t.ID})
			}
		}
		return g.All(), g.InitialInputs(), edges, nil
	}
	return sb
}

// localReadFraction averages, over alignment tasks, the fraction of input
// data that was local to the executing node — the mechanism behind
// Hi-WAY's advantage under a constrained switch.
func localReadFraction(rep *core.Report, fs *hdfs.FS) float64 {
	var frac float64
	n := 0
	for _, r := range rep.Results {
		// The Cuneiform source names the alignment task "align"; the
		// static generator uses the tool name "bowtie2".
		if r.Task.Name != "bowtie2" && r.Task.Name != "align" {
			continue
		}
		frac += fs.LocalFraction(r.Task.Inputs, r.Node)
		n++
	}
	if n == 0 {
		return 0
	}
	return frac / float64(n)
}

// fig4Recipe describes the experiment's infrastructure: YARN capacity is
// sized to expose exactly perNode one-core containers per node (the
// physical CPU capacity follows, since every container is single-threaded).
func fig4Recipe(perNode int, seed int64) *recipes.Recipe {
	spec := cluster.XeonE52620()
	spec.VCores = perNode
	spec.MemMB = perNode*1024 + 1024 // headroom for the AM container
	return &recipes.Recipe{
		Name:       fmt.Sprintf("fig4-%dx%d", fig4Nodes, perNode),
		Groups:     []recipes.NodeGroup{{Count: fig4Nodes, Spec: spec}},
		SwitchMBps: fig4SwitchMBps,
		// One block per read file: the data-aware scheduler reasons about
		// whole-file locality, as Hi-WAY does.
		HDFS: hdfs.Config{BlockSizeMB: 1024, Replication: 2},
		YARN: amConfig(),
		Seed: seed,
	}
}

// Render prints the figure as a text table.
func (r *Fig4Result) Render() string {
	headers := []string{"containers", "Hi-WAY (min)", "±std", "Tez (min)", "±std", "local reads"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprint(p.Containers),
			fmt.Sprintf("%.1f", p.HiWayMin), fmt.Sprintf("%.1f", p.HiWayStd),
			fmt.Sprintf("%.1f", p.TezMin), fmt.Sprintf("%.1f", p.TezStd),
			fmt.Sprintf("%.0f%%", p.HiWayLocalFrac*100),
		})
	}
	return "Fig. 4 — SNV calling, mean runtime vs container count (3 runs, log-log in the paper)\n" +
		table(headers, rows)
}
