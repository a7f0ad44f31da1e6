package experiments

import (
	"fmt"
	"math/rand"

	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

// pricePerVMHour is the m3.large price the paper assumes for Table 2.
const pricePerVMHour = 0.146

// Table2Options parameterizes the weak-scaling experiment (§4.1, second
// half): SNV calling on EC2 with 1→128 m3.large workers plus two dedicated
// master VMs, the input volume doubled together with the worker count,
// reads obtained from S3 during execution, CRAM-compressed intermediates,
// FCFS scheduling, and one container per worker node.
type Table2Options struct {
	Workers []int // default {1,2,4,8,16,32,64,128}
	Runs    int   // default 3
}

// The fixed setup of Table 2.
const (
	table2Jitter = 0.03
	table2Seed   = 52
)

func (o *Table2Options) setDefaults() {
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 4, 8, 16, 32, 64, 128}
	}
	if o.Runs <= 0 {
		o.Runs = 3
	}
}

// Fig6Sample is a resource-utilization snapshot of the three machine roles
// the paper monitors with uptime/iostat/ifstat.
type Fig6Sample struct {
	HadoopCPULoad, HadoopDiskUtil, HadoopNetMBps float64
	AMCPULoad, AMDiskUtil, AMNetMBps             float64
	WorkerCPULoad, WorkerDiskUtil, WorkerNetMBps float64
}

// Table2Row is one column of Table 2 (and one x-position of Figs. 5 and 6).
type Table2Row struct {
	Workers    int
	MasterVMs  int
	DataGB     float64
	AvgMin     float64
	StdMin     float64
	CostPerRun float64
	CostPerGB  float64
	Util       Fig6Sample
}

// Table2Result holds Table 2 / Fig. 5 / Fig. 6.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 runs the weak-scaling experiment.
func Table2(opt Table2Options) (*Table2Result, error) {
	opt.setDefaults()
	res := &Table2Result{}
	for _, workers := range opt.Workers {
		var times []float64
		var dataGB float64
		var util Fig6Sample
		for run := 0; run < opt.Runs; run++ {
			seed := table2Seed + int64(workers*10+run)
			row, err := table2Run(workers, seed)
			if err != nil {
				return nil, fmt.Errorf("table2 @%d workers: %w", workers, err)
			}
			times = append(times, row.minutes)
			dataGB = row.dataGB
			if run == 0 {
				util = row.util
			}
		}
		avg, std := stats(times)
		cost := float64(workers+2) * (avg / 60) * pricePerVMHour
		res.Rows = append(res.Rows, Table2Row{
			Workers:    workers,
			MasterVMs:  2,
			DataGB:     dataGB,
			AvgMin:     avg,
			StdMin:     std,
			CostPerRun: cost,
			CostPerGB:  cost / dataGB,
			Util:       util,
		})
	}
	return res, nil
}

type table2RunResult struct {
	minutes float64
	dataGB  float64
	util    Fig6Sample
}

// table2Run executes one weak-scaling run: workers samples on workers
// nodes. As in the paper (Table 1), the workflow is specified in Cuneiform.
func table2Run(workers int, seed int64) (*table2RunResult, error) {
	cfg := workloads.SNVConfig{
		Samples:  workers,
		External: true, // reads fetched from the 1000-Genomes S3 bucket
		CRAM:     true, // referential compression of intermediates
		RefLocal: true,
	}
	jitterSNVConfig(&cfg, rand.New(rand.NewSource(seed)), table2Jitter)
	driver, inputs, behavior := workloads.SNVCuneiformDriver("snv-scaling", cfg)
	const (
		amNode     = "node-00" // Hi-WAY AM, isolated per §4.1
		hadoopNode = "node-01" // HDFS NameNode + YARN ResourceManager
	)
	master := cluster.M3Large()
	master.MemMB = 2048 // worker containers (7000 MB) cannot land here
	r := &recipes.Recipe{
		Name: fmt.Sprintf("table2-%dworkers", workers),
		Groups: []recipes.NodeGroup{
			{Count: 2, Spec: master},
			{Count: workers, Spec: cluster.M3Large()},
		},
		SwitchMBps:          4000, // EC2 fabric: per-NIC limits dominate
		ExternalPerFlowMBps: 50,
		HDFS: hdfs.Config{
			BlockSizeMB:  256,
			Replication:  3,
			ExcludeNodes: []string{amNode, hadoopNode},
		},
		YARN:   yarn.Config{AMResource: yarn.Resource{VCores: 1, MemMB: 1024}},
		Seed:   seed,
		Inputs: inputs,
	}
	e, err := buildEnv(r, nil)
	if err != nil {
		return nil, err
	}
	am, err := core.Launch(e.Env, driver, scheduler.NewFCFS(), core.Config{
		// A single multithreaded container per worker node (§4.1: tasks
		// required the whole memory of a node).
		ContainerVCores: 2, ContainerMemMB: 7000,
		AMNode:   amNode,
		Behavior: behavior,
	})
	if err != nil {
		return nil, err
	}
	pumpMasterLoad(e, am, hadoopNode, amNode, workers)
	e.eng.Run()
	rep, err := am.Report()
	if err != nil {
		return nil, err
	}
	return &table2RunResult{
		minutes: rep.MakespanSec / 60,
		dataGB:  workloads.TotalInputMB(inputs) / 1024,
		util:    sampleUtilization(e, hadoopNode, amNode),
	}, nil
}

// pumpMasterLoad models the master-side work the simulation does not charge
// organically: the Hadoop masters process one heartbeat per worker per
// second plus block operations per completed task; the Hi-WAY AM spends CPU
// on scheduling decisions and writes provenance for every task. The
// constants are small (fractions of a core) — the experiment's point is
// that master load grows with scale yet stays far below saturation (Fig 6).
func pumpMasterLoad(e *env, am *core.AM, hadoopID, amID string, workers int) {
	const interval = 5.0
	hadoop := e.Cluster.Node(hadoopID)
	amn := e.Cluster.Node(amID)
	lastTasks := 0
	var tick func()
	tick = func() {
		if am.Finished() {
			return
		}
		done := am.CompletedTasks()
		delta := float64(done - lastTasks)
		lastTasks = done
		w := float64(workers)
		// work is perWorker per worker-second of the interval plus perTask
		// per task completed in it.
		work := func(perWorker, perTask float64) float64 {
			return float64(w*perWorker*interval) + float64(delta*perTask)
		}
		// NameNode + ResourceManager: heartbeats and block reports.
		hadoop.CPU.Submit(work(0.0006, 0.05), 1, nil)
		hadoop.Disk.Submit(work(0.01, 0.3), 0, nil)
		hadoop.NIC.Submit(work(0.02, 0.2), 0, nil)
		// Hi-WAY AM: container requests, task selection, provenance.
		amn.CPU.Submit(work(0.0002, 0.5), 1, nil)
		amn.Disk.Submit(delta*0.2, 0, nil)
		amn.NIC.Submit(work(0.005, 0.5), 0, nil)
		e.eng.Schedule(interval, tick)
	}
	e.eng.Schedule(interval, tick)
}

// sampleUtilization snapshots the three roles' resource meters.
func sampleUtilization(e *env, hadoopID, amID string) Fig6Sample {
	var s Fig6Sample
	var workerCPU, workerDisk, workerNet float64
	workers := 0
	for _, m := range e.Cluster.Metrics() {
		switch m.NodeID {
		case hadoopID:
			s.HadoopCPULoad = m.CPULoad
			s.HadoopDiskUtil = m.DiskUtil
			s.HadoopNetMBps = m.NetMBps
		case amID:
			s.AMCPULoad = m.CPULoad
			s.AMDiskUtil = m.DiskUtil
			s.AMNetMBps = m.NetMBps
		default:
			workerCPU += m.CPULoad
			workerDisk += m.DiskUtil
			workerNet += m.NetMBps
			workers++
		}
	}
	if workers > 0 {
		s.WorkerCPULoad = workerCPU / float64(workers)
		s.WorkerDiskUtil = workerDisk / float64(workers)
		s.WorkerNetMBps = workerNet / float64(workers)
	}
	return s
}

// Render prints Table 2 (the figure 5 series is the AvgMin column).
func (r *Table2Result) Render() string {
	headers := []string{"worker VMs", "master VMs", "data volume", "avg runtime", "std dev", "cost/run", "cost/GB"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprint(row.Workers),
			fmt.Sprint(row.MasterVMs),
			fmt.Sprintf("%.2f GB", row.DataGB),
			fmt.Sprintf("%.2f min", row.AvgMin),
			fmt.Sprintf("%.2f", row.StdMin),
			fmt.Sprintf("$%.2f", row.CostPerRun),
			fmt.Sprintf("$%.2f", row.CostPerGB),
		})
	}
	return "Table 2 / Fig. 5 — SNV weak scaling: doubling workers and input volume together\n" +
		table(headers, rows)
}

// RenderFig6 prints the utilization series.
func (r *Table2Result) RenderFig6() string {
	headers := []string{"workers",
		"hadoop cpu", "hadoop disk", "hadoop net",
		"am cpu", "am disk", "am net",
		"worker cpu", "worker disk", "worker net"}
	var rows [][]string
	for _, row := range r.Rows {
		u := row.Util
		rows = append(rows, []string{
			fmt.Sprint(row.Workers),
			fmt.Sprintf("%.4f", u.HadoopCPULoad), fmt.Sprintf("%.4f", u.HadoopDiskUtil), fmt.Sprintf("%.3f MB/s", u.HadoopNetMBps),
			fmt.Sprintf("%.4f", u.AMCPULoad), fmt.Sprintf("%.4f", u.AMDiskUtil), fmt.Sprintf("%.3f MB/s", u.AMNetMBps),
			fmt.Sprintf("%.2f", u.WorkerCPULoad), fmt.Sprintf("%.3f", u.WorkerDiskUtil), fmt.Sprintf("%.2f MB/s", u.WorkerNetMBps),
		})
	}
	return "Fig. 6 — resource utilization of master and worker roles while scaling\n" +
		"(CPU: uptime-style load; disk: iostat busy fraction; net: ifstat throughput)\n" +
		table(headers, rows)
}
