package experiments

import (
	"hiway/internal/chaos"
	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/provenance"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/workloads"
)

// ---------------------------------------------------------------------------
// Ablation 6: fault tolerance — makespan vs injected failure rate across
// scheduling policies, with and without speculative re-execution. The chaos
// plan crashes attempts at the given rate and hangs a fraction of them;
// hangs are recovered by the attempt deadline (kill-and-retry) or, when
// speculation is on, raced by a duplicate on another node.

// FaultToleranceRow is one (policy, failure rate, speculation) cell.
type FaultToleranceRow struct {
	Policy      string
	CrashRate   float64
	Speculate   bool
	MedianSec   float64 // median makespan of the successful runs
	Retries     float64 // mean retries per run
	TimedOut    float64 // mean attempts past their deadline per run
	Speculative float64 // mean duplicate attempts per run
	Failed      int     // runs that exhausted retries (excluded from median)
}

// FaultToleranceAblation sweeps failure rates over FCFS, data-aware, and
// HEFT, each with speculation off and on.
func FaultToleranceAblation(reps int, seed int64) ([]FaultToleranceRow, error) {
	if reps <= 0 {
		reps = 3
	}
	if seed == 0 {
		seed = 29
	}
	policies := []string{scheduler.PolicyFCFS, scheduler.PolicyDataAware, scheduler.PolicyHEFT}
	rates := []float64{0, 0.1, 0.25}

	var rows []FaultToleranceRow
	run := 0
	for _, policy := range policies {
		for _, rate := range rates {
			for _, speculate := range []bool{false, true} {
				row := FaultToleranceRow{Policy: policy, CrashRate: rate, Speculate: speculate}
				var spans []float64
				for i := 0; i < reps; i++ {
					run++
					rep, err := faultToleranceRun(policy, rate, speculate, seed+int64(run))
					if err != nil {
						return nil, err
					}
					if !rep.Succeeded {
						row.Failed++
						continue
					}
					spans = append(spans, rep.MakespanSec)
					row.Retries += float64(rep.Retries)
					row.TimedOut += float64(rep.TimedOut)
					row.Speculative += float64(rep.Speculative)
				}
				if n := reps - row.Failed; n > 0 {
					row.MedianSec = median(spans)
					row.Retries /= float64(n)
					row.TimedOut /= float64(n)
					row.Speculative /= float64(n)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// faultToleranceRun executes one SNV workflow under one chaos plan.
func faultToleranceRun(policy string, crashRate float64, speculate bool, seed int64) (*core.Report, error) {
	driver, inputs := workloads.SNV(workloads.SNVConfig{
		Samples: 2, FilesPerSample: 4, FileSizeMB: 64,
		AlignCPUSeconds: 60, SortCPUSeconds: 30, CallCPUSeconds: 60, AnnotateCPUSeconds: 20,
		RefLocal: true,
	})
	e, err := buildEnv(&recipes.Recipe{
		Name:       "ablation-faults",
		Groups:     []recipes.NodeGroup{{Count: 6, Spec: cluster.M3Large()}},
		SwitchMBps: 2000,
		HDFS:       hdfs.Config{BlockSizeMB: 512, Replication: 2},
		YARN:       amConfig(),
		Seed:       seed,
		Inputs:     inputs,
	}, provenance.NewMemStore())
	if err != nil {
		return nil, err
	}
	sched, err := scheduler.New(policy, scheduler.Deps{Locality: e.FS, Estimator: e.Prov})
	if err != nil {
		return nil, err
	}
	// A fifth of the failure budget hangs instead of crashing: hangs are
	// the expensive case (only the deadline recovers them) and the one
	// speculation addresses.
	plan := chaos.NewPlan(seed).WithCrashRate(crashRate).WithHangRate(crashRate / 5)
	cfg := core.Config{
		ContainerVCores: 2, ContainerMemMB: 4096,
		Chaos:               plan,
		Health:              scheduler.NewNodeHealthTracker(e.eng.Now, 3, 60),
		TaskTimeoutFloorSec: 90,
		TimeoutSlack:        3,
		Speculate:           speculate,
	}
	rep, err := core.Run(e.Env, driver, sched, cfg)
	if err != nil && rep == nil {
		return nil, err
	}
	return rep, nil
}
