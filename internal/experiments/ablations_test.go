package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"hiway/internal/chaos"
	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/provenance"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/wf"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

// The ablations quantify the design choices DESIGN.md calls out. They are
// not paper figures; they isolate the mechanisms behind them, and each test
// below asserts its ablation's shape and logs its rows under -v:
//
//	go test -run 'Ablation' -v ./internal/experiments/

// ---------------------------------------------------------------------------
// Ablation 1: scheduling policy under heterogeneity (Fig. 9's mechanism,
// including the dynamic adaptive-greedy policy the paper leaves as future
// work).

// schedulerAblationRow is one policy's result.
type schedulerAblationRow struct {
	Policy    string
	MedianSec float64
	StdSec    float64
}

// schedulerAblation runs Montage on the Fig. 9 heterogeneous cluster under
// four policies. HEFT and adaptive-greedy are given warm provenance
// (priorRuns prior executions) so the comparison isolates steady-state
// placement quality rather than exploration cost.
func schedulerAblation(reps, priorRuns int, seed int64) ([]schedulerAblationRow, error) {
	policies := []string{scheduler.PolicyFCFS, scheduler.PolicyDataAware, scheduler.PolicyHEFT, scheduler.PolicyAdaptiveGreedy}
	var rows []schedulerAblationRow
	for _, policy := range policies {
		var times []float64
		for rep := 0; rep < reps; rep++ {
			base := seed + int64(rep)*100
			store := provenance.NewMemStore()
			if policy == scheduler.PolicyHEFT || policy == scheduler.PolicyAdaptiveGreedy {
				// Warm the provenance with prior HEFT executions.
				for i := 0; i < priorRuns; i++ {
					if _, err := fig9Run(scheduler.PolicyHEFT, store, base+int64(i)); err != nil {
						return nil, err
					}
				}
			}
			t, err := ablationFig9Run(policy, store, base+50)
			if err != nil {
				return nil, err
			}
			times = append(times, t)
		}
		med := median(times)
		_, std := stats(times)
		rows = append(rows, schedulerAblationRow{Policy: policy, MedianSec: med, StdSec: std})
	}
	return rows, nil
}

// ablationFig9Run is fig9Run generalized over all policies.
func ablationFig9Run(policy string, store provenance.Store, seed int64) (float64, error) {
	driver, inputs := workloads.Montage(workloads.MontageConfig{Degree: 0.25, RuntimeScale: fig9RuntimeScale})
	r := &recipes.Recipe{
		Name:       "ablation-sched",
		Groups:     fig9Workers(),
		SwitchMBps: 2000,
		HDFS:       hdfs.Config{BlockSizeMB: 512, Replication: 3, ExcludeNodes: []string{"node-00"}},
		YARN:       yarn.Config{AMResource: yarn.Resource{VCores: 1, MemMB: 1024}},
		Seed:       seed,
		Inputs:     inputs,
	}
	e, err := buildEnv(r, store)
	if err != nil {
		return 0, err
	}
	if _, err := driver.Parse(); err != nil {
		return 0, err
	}
	jitterTasks(driver, rand.New(rand.NewSource(seed)), fig9Jitter)
	sched, err := scheduler.New(policy, scheduler.Deps{Locality: e.FS, Estimator: e.Prov})
	if err != nil {
		return 0, err
	}
	rep, err := core.Run(e.Env, reparse(driver), sched, core.Config{
		ContainerVCores: 2, ContainerMemMB: 7000, AMNode: "node-00",
	})
	if err != nil {
		return 0, err
	}
	return rep.MakespanSec, nil
}

// ---------------------------------------------------------------------------
// Ablation 2: HDFS replication factor vs locality and makespan (the lever
// behind Fig. 4: more replicas give the data-aware scheduler more nodes to
// choose from, at the price of write traffic).

// replicationAblationRow is one replication factor's result.
type replicationAblationRow struct {
	Replication int
	MakespanMin float64
	LocalFrac   float64
}

// replicationAblation runs the Fig. 4 workload (reduced) under data-aware
// scheduling with varying replication.
func replicationAblation(seed int64) ([]replicationAblationRow, error) {
	var rows []replicationAblationRow
	const samples, nodes, perNode = 8, 12, 12
	for _, repl := range []int{1, 2, 3} {
		driver, inputs := workloads.SNV(workloads.SNVConfig{
			Samples: samples, FilesPerSample: 12, FileSizeMB: 340,
			CallSplitRegions: 8, AlignCPUSeconds: 600, SortCPUSeconds: 400,
			CallCPUSeconds: 800, AnnotateCPUSeconds: 600, RefLocal: true,
		})
		spec := cluster.XeonE52620()
		spec.VCores = perNode
		spec.MemMB = perNode*1024 + 1024
		r := &recipes.Recipe{
			Name:       fmt.Sprintf("ablation-repl-%d", repl),
			Groups:     []recipes.NodeGroup{{Count: nodes, Spec: spec}},
			SwitchMBps: 400,
			HDFS:       hdfs.Config{BlockSizeMB: 1024, Replication: repl},
			YARN:       amConfig(),
			Seed:       seed,
			Inputs:     inputs,
		}
		e, err := buildEnv(r, nil)
		if err != nil {
			return nil, err
		}
		if _, err := driver.Parse(); err != nil {
			return nil, err
		}
		rep, err := core.Run(e.Env, reparse(driver), scheduler.NewDataAware(e.FS), core.Config{
			ContainerVCores: 1, ContainerMemMB: 1024,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, replicationAblationRow{
			Replication: repl,
			MakespanMin: rep.MakespanSec / 60,
			LocalFrac:   localReadFraction(rep, e.FS),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Ablation 3: one AM per workflow — concurrent multi-tenant execution vs
// serializing workflows through the cluster (§3.1's scalability argument).

// amAblationResult compares total wall time for N workflows.
type amAblationResult struct {
	Workflows     int
	ConcurrentMin float64
	SerialMin     float64
}

// multiAMAblation runs N independent SNV samples as N separate workflows
// (one AM each) concurrently, and then back-to-back, on the same cluster
// size.
func multiAMAblation(workflows int, seed int64) (*amAblationResult, error) {
	mkEnv := func() (*env, error) {
		spec := cluster.XeonE52620()
		spec.VCores = 8
		spec.MemMB = 8*1024 + 4096
		return buildEnv(&recipes.Recipe{
			Name:       "ablation-multiam",
			Groups:     []recipes.NodeGroup{{Count: workflows * 2, Spec: spec}},
			SwitchMBps: 2000,
			HDFS:       hdfs.Config{BlockSizeMB: 1024, Replication: 2},
			YARN:       amConfig(),
			Seed:       seed,
		}, nil)
	}
	mkDriver := func(i int, e *env) (wf.StaticDriver, error) {
		driver, inputs := workloads.SNV(workloads.SNVConfig{
			Samples: 1, FilesPerSample: 8, FileSizeMB: 256,
			AlignCPUSeconds: 300, SortCPUSeconds: 200, CallCPUSeconds: 400, AnnotateCPUSeconds: 200,
			RefLocal: true,
		})
		// Distinct paths per workflow instance.
		if _, err := driver.Parse(); err != nil {
			return nil, err
		}
		prefix := fmt.Sprintf("/wf%02d", i)
		for _, t := range driver.Graph().All() {
			for j := range t.Inputs {
				t.Inputs[j] = prefix + t.Inputs[j]
			}
			for p, fis := range t.Declared {
				for j := range fis {
					fis[j].Path = prefix + fis[j].Path
				}
				t.Declared[p] = fis
			}
		}
		var initial []string
		for _, in := range inputs {
			path := prefix + in.Path
			initial = append(initial, path)
			if !e.FS.Exists(path) {
				if _, err := e.FS.Put(path, in.SizeMB, ""); err != nil {
					return nil, err
				}
			}
		}
		// Rebuild the driver around the rewritten tasks: the original
		// graph's initial-input bookkeeping still holds the unprefixed
		// paths, so reparse() cannot be used here.
		g := driver.Graph()
		sb := &wf.StaticBase{WFName: fmt.Sprintf("wf%02d", i)}
		sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
			var edges []wf.Edge
			for _, t := range g.All() {
				for _, p := range g.Predecessors(t) {
					edges = append(edges, wf.Edge{Parent: p.ID, Child: t.ID})
				}
			}
			return g.All(), initial, edges, nil
		}
		return sb, nil
	}

	// Concurrent: one AM per workflow, all submitted at once.
	e, err := mkEnv()
	if err != nil {
		return nil, err
	}
	var ams []*core.AM
	for i := 0; i < workflows; i++ {
		d, err := mkDriver(i, e)
		if err != nil {
			return nil, err
		}
		am, err := core.Launch(e.Env, d, scheduler.NewFCFS(), core.Config{ContainerVCores: 2, ContainerMemMB: 2048})
		if err != nil {
			return nil, err
		}
		ams = append(ams, am)
	}
	e.eng.Run()
	var concurrentEnd float64
	for _, am := range ams {
		rep, err := am.Report()
		if err != nil {
			return nil, err
		}
		if rep.End > concurrentEnd {
			concurrentEnd = rep.End
		}
	}

	// Serial: the same workflows one after another on a fresh cluster.
	e2, err := mkEnv()
	if err != nil {
		return nil, err
	}
	var serialEnd float64
	for i := 0; i < workflows; i++ {
		d, err := mkDriver(i, e2)
		if err != nil {
			return nil, err
		}
		rep, err := core.Run(e2.Env, d, scheduler.NewFCFS(), core.Config{ContainerVCores: 2, ContainerMemMB: 2048})
		if err != nil {
			return nil, err
		}
		serialEnd = rep.End
	}
	return &amAblationResult{
		Workflows:     workflows,
		ConcurrentMin: concurrentEnd / 60,
		SerialMin:     serialEnd / 60,
	}, nil
}

// ---------------------------------------------------------------------------
// Ablation 4: fault tolerance — makespan vs injected failure rate across
// scheduling policies, with and without speculative re-execution. The chaos
// plan crashes attempts at the given rate and hangs a fraction of them;
// hangs are recovered by the attempt deadline (kill-and-retry) or, when
// speculation is on, raced by a duplicate on another node.

// faultToleranceRow is one (policy, failure rate, speculation) cell.
type faultToleranceRow struct {
	Policy      string
	CrashRate   float64
	Speculate   bool
	MedianSec   float64 // median makespan of the successful runs
	Retries     float64 // mean retries per run
	TimedOut    float64 // mean attempts past their deadline per run
	Speculative float64 // mean duplicate attempts per run
	Failed      int     // runs that exhausted retries (excluded from median)
}

// faultToleranceAblation sweeps failure rates over FCFS, data-aware, and
// HEFT, each with speculation off and on.
func faultToleranceAblation(reps int, seed int64) ([]faultToleranceRow, error) {
	policies := []string{scheduler.PolicyFCFS, scheduler.PolicyDataAware, scheduler.PolicyHEFT}
	rates := []float64{0, 0.1, 0.25}

	var rows []faultToleranceRow
	run := 0
	for _, policy := range policies {
		for _, rate := range rates {
			for _, speculate := range []bool{false, true} {
				row := faultToleranceRow{Policy: policy, CrashRate: rate, Speculate: speculate}
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
	plan := chaos.NewPlan(seed)
	plan.CrashRate, plan.HangRate = crashRate, crashRate/5
	cfg := core.Config{
		ContainerVCores: 2, ContainerMemMB: 4096,
		Chaos:               plan,
		Health:              scheduler.NewNodeHealthTracker(e.eng.Now),
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

func TestSchedulerAblation(t *testing.T) {
	rows, err := schedulerAblation(3, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]schedulerAblationRow{}
	for _, r := range rows {
		t.Logf("%-10s median %6.0f s  std %5.1f s", r.Policy, r.MedianSec, r.StdSec)
		byPolicy[r.Policy] = r
	}
	fcfs, heft, adaptive := byPolicy["fcfs"], byPolicy["heft"], byPolicy["adaptive"]
	// With warm provenance, both adaptive policies beat FCFS on the
	// heterogeneous cluster.
	if heft.MedianSec >= fcfs.MedianSec {
		t.Fatalf("warm HEFT (%.0fs) should beat FCFS (%.0fs)", heft.MedianSec, fcfs.MedianSec)
	}
	if adaptive.MedianSec >= fcfs.MedianSec {
		t.Fatalf("adaptive-greedy (%.0fs) should beat FCFS (%.0fs)", adaptive.MedianSec, fcfs.MedianSec)
	}
}

func TestReplicationAblation(t *testing.T) {
	rows, err := replicationAblation(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Locality is high at every factor (data-aware picks replica holders);
	// with a single replica there is exactly one eligible node per file,
	// so queueing delays rise — replication buys scheduling freedom.
	for _, r := range rows {
		t.Logf("replication %d: makespan %5.1f min, local fraction %.2f", r.Replication, r.MakespanMin, r.LocalFrac)
		if r.LocalFrac < 0.85 {
			t.Fatalf("replication %d: local fraction %.2f", r.Replication, r.LocalFrac)
		}
	}
}

func TestMultiAMAblation(t *testing.T) {
	res, err := multiAMAblation(3, 13)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d workflows: concurrent %.1f min, serial %.1f min", res.Workflows, res.ConcurrentMin, res.SerialMin)
	// Running the workflows concurrently (one AM each) on a cluster big
	// enough for all of them is far faster than serializing them.
	if res.ConcurrentMin >= res.SerialMin*0.7 {
		t.Fatalf("concurrent %0.1f min vs serial %0.1f min", res.ConcurrentMin, res.SerialMin)
	}
}

func TestFaultToleranceAblation(t *testing.T) {
	rows, err := faultToleranceAblation(2, 29)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 { // 3 policies x 3 rates x 2 speculation modes
		t.Fatalf("rows = %d", len(rows))
	}
	base := map[string]float64{}
	for _, r := range rows {
		t.Logf("%-9s crash %.2f speculate %-5v: median %4.0f s, retries %.1f, timed out %.1f, speculative %.1f, failed %d",
			r.Policy, r.CrashRate, r.Speculate, r.MedianSec, r.Retries, r.TimedOut, r.Speculative, r.Failed)
		if r.Failed == 2 {
			t.Fatalf("every run failed in cell %+v", r)
		}
		if r.CrashRate == 0 {
			if r.Retries != 0 || r.TimedOut != 0 || r.Speculative != 0 {
				t.Fatalf("fault accounting nonzero without faults: %+v", r)
			}
			base[r.Policy] = r.MedianSec
		}
	}
	for _, r := range rows {
		if r.CrashRate == 0.25 && r.Failed == 0 && r.MedianSec <= base[r.Policy] {
			t.Fatalf("faults at rate 0.25 did not cost makespan for %s: %.1f <= %.1f",
				r.Policy, r.MedianSec, base[r.Policy])
		}
	}
}
