// Package tez implements a Tez-like DAG execution engine on the simulated
// YARN substrate — the comparator of the paper's first experiment (§4.1,
// Fig. 4). Like Apache Tez, it runs a DAG of tasks inside a pool of
// long-lived, reused containers; unlike Hi-WAY, task-to-container
// assignment is locality-oblivious FIFO, so input data is fetched from
// wherever its HDFS replicas happen to live.
package tez

import (
	"fmt"

	"hiway/internal/core"
	"hiway/internal/wf"
	"hiway/internal/yarn"
)

// Every pooled container has one core and 1 GB, the size the Hi-WAY side of
// Fig. 4 runs its tasks in.
const containerVCores, containerMemMB = 1, 1024

// Config tunes the engine.
type Config struct {
	// Containers is the size of the reused container pool (the x-axis of
	// Fig. 4). Default: one per cluster node.
	Containers int
	// Behavior computes simulated task outcomes (default: declared).
	Behavior wf.Behavior
}

// Run executes the static workflow to completion and reports like the
// Hi-WAY AM, so experiments can compare directly.
func Run(env core.Env, driver wf.StaticDriver, cfg Config) (*core.Report, error) {
	if cfg.Containers <= 0 {
		cfg.Containers = env.Cluster.Size()
	}
	if cfg.Behavior == nil {
		cfg.Behavior = wf.DefaultOutcome
	}

	ready, err := driver.Parse()
	if err != nil {
		return nil, fmt.Errorf("tez: parsing: %w", err)
	}
	app, err := env.RM.SubmitApplication("tez-"+driver.Name(), "")
	if err != nil {
		return nil, fmt.Errorf("tez: submitting AM: %w", err)
	}

	eng := env.Cluster.Engine
	e := &engine{
		env: env, cfg: cfg, driver: driver, app: app,
		queue: append([]*wf.Task(nil), ready...),
		start: eng.Now(),
	}
	// Acquire the long-lived container pool once; each container becomes
	// a worker that repeatedly pulls tasks (Tez's container reuse).
	res := yarn.Resource{VCores: containerVCores, MemMB: containerMemMB}
	for i := 0; i < cfg.Containers; i++ {
		app.Request(yarn.Request{Resource: res}, func(c *yarn.Container) {
			e.pool = append(e.pool, c)
			e.next(c)
		})
	}
	eng.Run()
	if e.report == nil {
		return nil, fmt.Errorf("tez: workflow %s stalled: queue=%d running=%d done=%v",
			driver.Name(), len(e.queue), e.running, driver.Done())
	}
	if e.report.Err != nil {
		return e.report, e.report.Err
	}
	return e.report, nil
}

type engine struct {
	env    core.Env
	cfg    Config
	driver wf.StaticDriver
	app    *yarn.Application

	queue   []*wf.Task
	idle    []*yarn.Container
	pool    []*yarn.Container
	running int
	results []*wf.TaskResult
	start   float64
	report  *core.Report
}

// next assigns the container its next task, or parks it.
func (e *engine) next(c *yarn.Container) {
	if e.report != nil {
		return
	}
	if len(e.queue) == 0 {
		e.idle = append(e.idle, c)
		return
	}
	t := e.queue[0]
	e.queue = e.queue[1:]
	e.run(t, c)
}

// wake dispatches parked containers onto newly ready tasks.
func (e *engine) wake() {
	for len(e.idle) > 0 && len(e.queue) > 0 {
		c := e.idle[0]
		e.idle = e.idle[1:]
		t := e.queue[0]
		e.queue = e.queue[1:]
		e.run(t, c)
	}
}

// run executes one task inside the (reused) container: stage-in from HDFS,
// compute, stage-out to HDFS.
func (e *engine) run(t *wf.Task, c *yarn.Container) {
	eng := e.env.Cluster.Engine
	node := e.env.Cluster.NodeAt(c.Slot)
	e.running++
	res := &wf.TaskResult{Task: t, Node: c.NodeID, Start: eng.Now()}

	stageInStart := eng.Now()
	e.env.FS.Read(node, t.Inputs, func(err error) {
		if e.report != nil {
			return
		}
		if err != nil {
			e.finish(fmt.Errorf("tez: %s stage-in: %w", t, err))
			return
		}
		res.StageInSec = eng.Now() - stageInStart
		threads := t.Threads
		if threads > c.Resource.VCores {
			threads = c.Resource.VCores
		}
		execStart := eng.Now()
		e.env.Cluster.Compute(node, t.CPUSeconds, threads, func() {
			if e.report != nil {
				return
			}
			res.ExecSec = eng.Now() - execStart
			outcome := e.cfg.Behavior(t)
			res.ExitCode = outcome.ExitCode
			res.Error = outcome.Error
			res.Outputs = outcome.Outputs
			if !res.Succeeded() {
				e.finish(fmt.Errorf("tez: %s failed (exit %d): %s", t, res.ExitCode, res.Error))
				return
			}
			files := res.OutputFiles()
			pending := len(files)
			stageOutStart := eng.Now()
			complete := func() {
				res.StageOutSec = eng.Now() - stageOutStart
				res.End = eng.Now()
				e.onDone(t, c, res)
			}
			if pending == 0 {
				complete()
				return
			}
			for _, fi := range files {
				e.env.FS.Write(node, fi.Path, fi.SizeMB, func(err error) {
					if e.report != nil {
						return
					}
					if err != nil {
						e.finish(fmt.Errorf("tez: %s stage-out: %w", t, err))
						return
					}
					pending--
					if pending == 0 {
						complete()
					}
				})
			}
		})
	})
}

func (e *engine) onDone(t *wf.Task, c *yarn.Container, res *wf.TaskResult) {
	e.running--
	e.results = append(e.results, res)
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
	e.next(c)
	e.wake()
	if e.report == nil && e.running == 0 && len(e.queue) == 0 && !e.driver.Done() {
		e.finish(fmt.Errorf("tez: workflow %s stalled", e.driver.Name()))
	}
}

func (e *engine) finish(err error) {
	if e.report != nil {
		return
	}
	eng := e.env.Cluster.Engine
	e.report = &core.Report{
		WorkflowName: e.driver.Name(),
		Scheduler:    "tez-fifo",
		Start:        e.start,
		End:          eng.Now(),
		MakespanSec:  eng.Now() - e.start,
		Succeeded:    err == nil,
		Err:          err,
		Results:      e.results,
		Containers:   int64(len(e.pool)),
	}
	if err == nil {
		e.report.Outputs = e.driver.Outputs()
	}
	for _, c := range e.pool {
		e.app.Release(c)
	}
	e.app.Finish()
}
