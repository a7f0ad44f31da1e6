package experiments

import (
	"fmt"
	"math/rand"

	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/provenance"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

// Fig9Options parameterizes the adaptive-scheduling experiment (§4.3): a
// 0.25° Montage workflow (DAX, parallelism 11) on a virtual cluster of one
// master and eleven m3.large workers with synthetic heterogeneity — one
// unperturbed worker, five taxed with 1/4/16/64/256 CPU-bound stress
// processes, five with 1/4/16/64/256 disk writers. Each repetition runs the
// workflow once under FCFS (the baseline) and twenty times consecutively
// under HEFT with provenance accumulating across runs; provenance is wiped
// between repetitions.
type Fig9Options struct {
	Reps            int // repetitions; default 80 as in the paper
	ConsecutiveRuns int // HEFT runs per repetition; default 20
}

// The fixed setup of Fig. 9.
const (
	fig9RuntimeScale = 0.09 // Montage task scale: short tasks
	fig9Jitter       = 0.12
	fig9Seed         = 74
)

func (o *Fig9Options) setDefaults() {
	if o.Reps <= 0 {
		o.Reps = 80
	}
	if o.ConsecutiveRuns <= 0 {
		o.ConsecutiveRuns = 20
	}
}

// Fig9Point is one x-position: the distribution of HEFT runtimes given
// priorRuns previous executions' provenance.
type Fig9Point struct {
	PriorRuns int
	MedianSec float64
	StdSec    float64
}

// Fig9Result holds the figure: the FCFS baseline and the HEFT series.
type Fig9Result struct {
	FCFSMedianSec float64
	FCFSStdSec    float64
	Points        []Fig9Point
}

// fig9Workers builds the heterogeneous worker set: the paper's one clean
// node, five CPU-stressed and five I/O-stressed with increasing intensity.
func fig9Workers() []recipes.NodeGroup {
	master := cluster.M3Large()
	master.MemMB = 2048 // no task containers on the master
	groups := []recipes.NodeGroup{{Count: 1, Spec: master}}
	clean := cluster.M3Large()
	groups = append(groups, recipes.NodeGroup{Count: 1, Spec: clean})
	for _, hogs := range []int{1, 4, 16, 64, 256} {
		s := cluster.M3Large()
		s.CPUHogs = hogs
		groups = append(groups, recipes.NodeGroup{Count: 1, Spec: s})
	}
	for _, hogs := range []int{1, 4, 16, 64, 256} {
		s := cluster.M3Large()
		s.IOHogs = hogs
		groups = append(groups, recipes.NodeGroup{Count: 1, Spec: s})
	}
	return groups
}

// fig9Run executes the Montage workflow once with the given policy and a
// provenance store (which may carry earlier runs' events).
func fig9Run(policy string, store provenance.Store, seed int64) (float64, error) {
	driver, inputs := workloads.Montage(workloads.MontageConfig{Degree: 0.25, RuntimeScale: fig9RuntimeScale})
	r := &recipes.Recipe{
		Name:       "fig9",
		Groups:     fig9Workers(),
		SwitchMBps: 2000,
		HDFS: hdfs.Config{
			BlockSizeMB:  512,
			Replication:  3,
			ExcludeNodes: []string{"node-00"},
		},
		YARN:   yarn.Config{AMResource: yarn.Resource{VCores: 1, MemMB: 1024}},
		Seed:   seed,
		Inputs: inputs,
	}
	e, err := buildEnv(r, store)
	if err != nil {
		return 0, err
	}
	if _, err := driver.Parse(); err != nil {
		return 0, err
	}
	jitterTasks(driver, rand.New(rand.NewSource(seed)), fig9Jitter)

	var sched scheduler.Scheduler
	switch policy {
	case scheduler.PolicyHEFT:
		sched = scheduler.NewHEFTSeeded(e.Prov, seed)
	default:
		sched = scheduler.NewFCFS()
	}
	rep, err := core.Run(e.Env, reparse(driver), sched, core.Config{
		// Consecutive runs record into one store, each from a fresh RM, so
		// each names its own run.
		WorkflowID: fmt.Sprintf("fig9-%s-%d", policy, seed),
		// One task per worker at a time: a two-vcore container fills an
		// m3.large, matching HEFT's one-task-per-node model.
		ContainerVCores: 2, ContainerMemMB: 7000,
		AMNode: "node-00",
	})
	if err != nil {
		return 0, err
	}
	return rep.MakespanSec, nil
}

// Fig9 runs the experiment.
func Fig9(opt Fig9Options) (*Fig9Result, error) {
	opt.setDefaults()
	var fcfs []float64
	heft := make([][]float64, opt.ConsecutiveRuns)
	for rep := 0; rep < opt.Reps; rep++ {
		base := fig9Seed + int64(rep)*1000

		// Baseline: one FCFS execution (its own provenance, discarded).
		t, err := fig9Run(scheduler.PolicyFCFS, provenance.NewMemStore(), base)
		if err != nil {
			return nil, fmt.Errorf("fig9: fcfs rep %d: %w", rep, err)
		}
		fcfs = append(fcfs, t)

		// Twenty consecutive HEFT executions sharing one provenance
		// store: run i is planned with i prior runs' estimates.
		store := provenance.NewMemStore()
		for i := 0; i < opt.ConsecutiveRuns; i++ {
			t, err := fig9Run(scheduler.PolicyHEFT, store, base+int64(i)+1)
			if err != nil {
				return nil, fmt.Errorf("fig9: heft rep %d run %d: %w", rep, i, err)
			}
			heft[i] = append(heft[i], t)
		}
	}
	res := &Fig9Result{}
	res.FCFSMedianSec = median(fcfs)
	_, res.FCFSStdSec = stats(fcfs)
	for i, series := range heft {
		_, std := stats(series)
		res.Points = append(res.Points, Fig9Point{
			PriorRuns: i,
			MedianSec: median(series),
			StdSec:    std,
		})
	}
	return res, nil
}

// Render prints the figure as a text table.
func (r *Fig9Result) Render() string {
	headers := []string{"prior runs", "HEFT median (s)", "±std"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprint(p.PriorRuns),
			fmt.Sprintf("%.1f", p.MedianSec),
			fmt.Sprintf("%.1f", p.StdSec),
		})
	}
	return fmt.Sprintf("Fig. 9 — Montage on a heterogeneous cluster: HEFT with growing provenance\n"+
		"FCFS (greedy) baseline: median %.1f s (±%.1f)\n%s",
		r.FCFSMedianSec, r.FCFSStdSec, table(headers, rows))
}
