// Package cloudman models Galaxy CloudMan — the comparator of the paper's
// RNA-seq experiment (§4.2, Fig. 8): Galaxy workflows executed by a
// Slurm-style FCFS batch scheduler on an EC2 cluster whose storage is a
// single Amazon EBS volume shared over the network by all nodes.
//
// The decisive difference from Hi-WAY (per the paper's analysis) is
// storage: every byte a task reads or writes crosses the shared volume,
// while Hi-WAY uses the workers' transient local SSDs through HDFS. Like
// CloudMan, the engine refuses clusters beyond 20 nodes.
package cloudman

import (
	"fmt"

	"hiway/internal/cluster"
	"hiway/internal/sim"
	"hiway/internal/wf"
)

// MaxNodes is CloudMan's documented automated-setup limit (§4.2).
const MaxNodes = 20

// Config tunes the engine.
type Config struct {
	// VolumeMBps is the shared EBS volume's aggregate throughput.
	// Default 120 (a ~1 Gb/s-attached volume).
	VolumeMBps float64
	// InputSizesMB supplies the sizes of the workflow's initial inputs.
	InputSizesMB map[string]float64
	// Behavior computes simulated task outcomes (default: declared).
	Behavior wf.Behavior
}

// Report summarizes a CloudMan run.
type Report struct {
	MakespanSec float64
	Err         error
}

// Run executes the static workflow on the cluster.
func Run(cl *cluster.Cluster, driver wf.StaticDriver, cfg Config) (*Report, error) {
	if cl.Size() > MaxNodes {
		return nil, fmt.Errorf("cloudman: cluster of %d nodes exceeds the %d-node setup limit", cl.Size(), MaxNodes)
	}
	if cfg.VolumeMBps <= 0 {
		cfg.VolumeMBps = 120
	}
	if cfg.Behavior == nil {
		cfg.Behavior = wf.DefaultOutcome
	}
	ready, err := driver.Parse()
	if err != nil {
		return nil, fmt.Errorf("cloudman: parsing: %w", err)
	}

	e := &engine{
		cl:     cl,
		cfg:    cfg,
		driver: driver,
		volume: sim.NewSharedResource(cl.Engine, "ebs-volume", cfg.VolumeMBps),
		busy:   make(map[string]bool, cl.Size()),
		sizes:  make(map[string]float64, len(cfg.InputSizesMB)),
		queue:  append([]*wf.Task(nil), ready...),
		start:  cl.Engine.Now(),
	}
	for p, s := range cfg.InputSizesMB {
		e.sizes[p] = s
	}
	e.dispatch()
	cl.Engine.Run()
	if e.report == nil {
		return nil, fmt.Errorf("cloudman: workflow %s stalled: queue=%d running=%d", driver.Name(), len(e.queue), e.running)
	}
	if e.report.Err != nil {
		return e.report, e.report.Err
	}
	return e.report, nil
}

type engine struct {
	cl     *cluster.Cluster
	cfg    Config
	driver wf.StaticDriver
	volume *sim.SharedResource

	busy    map[string]bool    // nodes running their one task
	sizes   map[string]float64 // path → MB on the shared volume
	queue   []*wf.Task
	running int
	start   float64
	report  *Report
}

// dispatch assigns queued tasks FCFS to idle nodes. Each node runs one task
// at a time: the paper configured Slurm that way to avoid running out of
// memory.
func (e *engine) dispatch() {
	if e.report != nil {
		return
	}
	for len(e.queue) > 0 {
		node := e.freeNode()
		if node == nil {
			return
		}
		t := e.queue[0]
		e.queue = e.queue[1:]
		e.busy[node.ID] = true
		e.run(t, node)
	}
}

// freeNode returns the first idle node in ID order, or nil.
func (e *engine) freeNode() *cluster.Node {
	for _, n := range e.cl.Nodes() {
		if !e.busy[n.ID] {
			return n
		}
	}
	return nil
}

// run executes a task: all file traffic crosses the shared volume, capped
// by the node's NIC.
func (e *engine) run(t *wf.Task, node *cluster.Node) {
	eng := e.cl.Engine
	e.running++
	res := &wf.TaskResult{Task: t, Node: node.ID, Start: eng.Now()}

	var inMB float64
	for _, in := range t.Inputs {
		inMB += e.sizes[in]
	}
	stageInStart := eng.Now()
	e.volume.Submit(inMB, node.Spec.NetMBps, func() {
		if e.report != nil {
			return
		}
		res.StageInSec = eng.Now() - stageInStart
		execStart := eng.Now()
		e.cl.Compute(node, t.CPUSeconds, t.Threads, func() {
			if e.report != nil {
				return
			}
			res.ExecSec = eng.Now() - execStart
			outcome := e.cfg.Behavior(t)
			res.ExitCode = outcome.ExitCode
			res.Error = outcome.Error
			res.Outputs = outcome.Outputs
			if !res.Succeeded() {
				e.finish(fmt.Errorf("cloudman: %s failed (exit %d): %s", t, res.ExitCode, res.Error))
				return
			}
			var outMB float64
			for _, fi := range res.OutputFiles() {
				outMB += fi.SizeMB
				e.sizes[fi.Path] = fi.SizeMB
			}
			stageOutStart := eng.Now()
			e.volume.Submit(outMB, node.Spec.NetMBps, func() {
				if e.report != nil {
					return
				}
				res.StageOutSec = eng.Now() - stageOutStart
				res.End = eng.Now()
				e.onDone(t, node, res)
			})
		})
	})
}

func (e *engine) onDone(t *wf.Task, node *cluster.Node, res *wf.TaskResult) {
	e.running--
	e.busy[node.ID] = false
	next, err := e.driver.OnTaskComplete(res)
	if err != nil {
		e.finish(err)
		return
	}
	e.queue = append(e.queue, next...)
	if e.driver.Done() {
		e.finish(nil)
		return
	}
	e.dispatch()
	if e.report == nil && e.running == 0 && len(e.queue) == 0 {
		e.finish(fmt.Errorf("cloudman: workflow %s stalled", e.driver.Name()))
	}
}

func (e *engine) finish(err error) {
	if e.report != nil {
		return
	}
	e.report = &Report{MakespanSec: e.cl.Engine.Now() - e.start, Err: err}
}
