package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/provenance"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/shard"
	"hiway/internal/wf"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

// ScaleConfig describes one point of the scale-out harness: a synthetic
// layered workflow (Layers × Width tasks, each layer consuming the previous
// one's outputs) executed on a uniform cluster of Nodes workers. It probes
// the regime of the paper's Fig. 8/9 — thousands of tasks on large clusters —
// where the simulator's own hot paths, not the modeled hardware, must not
// become the bottleneck.
type ScaleConfig struct {
	Tasks  int    // total task count (rounded down to a multiple of Width)
	Width  int    // tasks per layer (parallelism); default 64
	Nodes  int    // worker nodes; default 16
	Policy string // scheduling policy; default dataaware

	// Shards > 1 splits the point into that many independent workflows,
	// each with Tasks/Shards tasks, Width/Shards lanes and Nodes/Shards
	// nodes on its own simulation substrate, executed by the shard runner
	// (ShardWorkers goroutines; default GOMAXPROCS). This is how the top
	// rungs keep per-event cost in the flat small-cluster regime: the
	// switch model's reshare cost grows with concurrent flows per engine,
	// so one 1024-node engine is slower per event than sixteen 64-node
	// engines simulating the same aggregate work.
	Shards       int
	ShardWorkers int

	TaskCPUSeconds float64 // per-task compute; default 20
	FileMB         float64 // per-task output size; default 8
}

func (c *ScaleConfig) setDefaults() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.ShardWorkers <= 0 {
		c.ShardWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Width <= 0 {
		c.Width = 64
	}
	if c.Tasks < c.Width {
		c.Tasks = c.Width
	}
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if c.Policy == "" {
		c.Policy = scheduler.PolicyDataAware
	}
	if c.TaskCPUSeconds <= 0 {
		c.TaskCPUSeconds = 20
	}
	if c.FileMB <= 0 {
		c.FileMB = 8
	}
}

// ScalePoint is the measurement for one configuration.
type ScalePoint struct {
	Tasks  int    `json:"tasks"`
	Nodes  int    `json:"nodes"`
	Policy string `json:"policy"`
	Shards int    `json:"shards,omitempty"`

	MakespanSec  float64 `json:"makespanSec"`  // virtual time
	WallSec      float64 `json:"wallSec"`      // real time to simulate it
	Events       int64   `json:"events"`       // engine events executed
	EventsPerSec float64 `json:"eventsPerSec"` // events / wall second
	AllocMB      float64 `json:"allocMB"`      // heap allocated during the run
	Containers   int64   `json:"containers"`
	// MaxQueueDepth is the most events any one engine of the point ever
	// had pending at once (the maximum over its shards).
	MaxQueueDepth int `json:"maxQueueDepth"`
}

// ScaleResult is the full harness output, serialized to BENCH_scale.json by
// the scale benchmark and the CI smoke step.
type ScaleResult struct {
	Points []ScalePoint `json:"points"`
}

// syntheticWorkflow builds a layered fan-out workflow: layer 0 reads the
// staged inputs; each task of layer l consumes the output of the same lane
// in layer l-1 plus one shuffled neighbor lane, modeling the mix of
// pipeline-local and cross-lane data dependencies of real workflows.
func syntheticWorkflow(cfg ScaleConfig) (wf.Driver, []workloads.Input) {
	layers := cfg.Tasks / cfg.Width
	inputs := make([]workloads.Input, cfg.Width)
	initial := make([]string, cfg.Width)
	for w := 0; w < cfg.Width; w++ {
		p := fmt.Sprintf("/scale/in/part-%04d", w)
		inputs[w] = workloads.Input{Path: p, SizeMB: cfg.FileMB}
		initial[w] = p
	}
	build := func() ([]*wf.Task, []string, []wf.Edge, error) {
		var ids wf.IDSeq
		var tasks []*wf.Task
		out := func(l, w int) string { return fmt.Sprintf("/scale/l%03d/part-%04d", l, w) }
		for l := 0; l < layers; l++ {
			for w := 0; w < cfg.Width; w++ {
				var ins []string
				if l == 0 {
					ins = []string{initial[w]}
				} else {
					ins = []string{out(l-1, w), out(l-1, (w*7+l)%cfg.Width)}
				}
				p := out(l, w)
				tasks = append(tasks, &wf.Task{
					ID:           ids.Next(),
					Name:         fmt.Sprintf("stage-%03d", l),
					Command:      fmt.Sprintf("synth stage %d lane %d", l, w),
					Inputs:       ins,
					OutputParams: []string{"out"},
					Declared:     map[string][]wf.FileInfo{"out": {{Path: p, SizeMB: cfg.FileMB}}},
					CPUSeconds:   cfg.TaskCPUSeconds,
					Threads:      1,
					MemMB:        512,
				})
			}
		}
		return tasks, initial, nil, nil
	}
	return &wf.StaticBase{WFName: fmt.Sprintf("scale-%dx%d", layers, cfg.Width), Build: build}, inputs
}

// scaleShard is one shard of a scale point. The workflow driver is created
// before the measured phase, while the simulation substrate is assembled
// inside run() on the shard worker, so substrate construction and parsing
// are part of the measured phase exactly as in a single-substrate run.
// After run() everything but the scalar measurements is dropped, keeping
// the live heap one-shard-sized however many shards the point has.
type scaleShard struct {
	cfg    ScaleConfig
	seed   int64
	driver wf.Driver
	inputs []workloads.Input

	events     int64
	containers int64
	makespan   float64
	maxDepth   int
}

func (s *scaleShard) run() error {
	r := &recipes.Recipe{
		Name:       "scale",
		Groups:     []recipes.NodeGroup{{Count: s.cfg.Nodes, Spec: cluster.C32XLarge()}},
		SwitchMBps: 40 * float64(s.cfg.Nodes),
		HDFS:       hdfs.Config{BlockSizeMB: 64, Replication: 3},
		YARN:       yarn.Config{},
		Seed:       s.seed,
		Inputs:     s.inputs,
	}
	e, err := buildEnv(r, provenance.NewMemStore())
	if err != nil {
		return err
	}
	sched, err := scheduler.New(s.cfg.Policy, scheduler.Deps{Locality: e.FS, Estimator: e.Prov})
	if err != nil {
		return err
	}
	rep, err := core.Run(e.Env, s.driver, sched, core.Config{ContainerVCores: 1, ContainerMemMB: 1024})
	if err != nil {
		return err
	}
	s.events = e.eng.Processed()
	s.maxDepth = e.eng.MaxQueueDepth()
	s.containers = rep.Containers
	s.makespan = rep.MakespanSec
	s.driver, s.inputs = nil, nil
	return nil
}

// Scale executes one configuration and measures the simulator itself:
// virtual makespan, wall time, events/sec, and heap allocations. With
// cfg.Shards > 1 the point runs as that many independent workflows on
// separate engines via the shard runner; events and containers are summed,
// the makespan is the slowest shard's (the shards model disjoint clusters
// running concurrently), and wall time covers the whole parallel phase
// including each shard's substrate construction and parse.
func Scale(cfg ScaleConfig) (ScalePoint, error) {
	cfg.setDefaults()

	per := cfg
	per.Tasks = cfg.Tasks / cfg.Shards
	per.Width = cfg.Width / cfg.Shards
	per.Nodes = cfg.Nodes / cfg.Shards
	per.setDefaults()

	shards := make([]*scaleShard, cfg.Shards)
	for i := range shards {
		driver, inputs := syntheticWorkflow(per)
		shards[i] = &scaleShard{cfg: per, seed: int64(i + 1), driver: driver, inputs: inputs}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := shard.Run(len(shards), cfg.ShardWorkers, func(i int) error { return shards[i].run() })
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return ScalePoint{}, err
	}

	pt := ScalePoint{
		Tasks:   per.Tasks / per.Width * per.Width * cfg.Shards,
		Nodes:   per.Nodes * cfg.Shards,
		Policy:  cfg.Policy,
		WallSec: wall,
		AllocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
	}
	if cfg.Shards > 1 {
		pt.Shards = cfg.Shards
	}
	for _, s := range shards {
		pt.Events += s.events
		pt.Containers += s.containers
		if s.makespan > pt.MakespanSec {
			pt.MakespanSec = s.makespan
		}
		if s.maxDepth > pt.MaxQueueDepth {
			pt.MaxQueueDepth = s.maxDepth
		}
	}
	if wall > 0 {
		pt.EventsPerSec = float64(pt.Events) / wall
	}
	return pt, nil
}

// ScaleSweepConfigs is the default ladder the benchmark and CI smoke run:
// from a small sanity point up to ~10k tasks on a 256-node cluster.
func ScaleSweepConfigs(full bool) []ScaleConfig {
	cfgs := []ScaleConfig{
		{Tasks: 512, Width: 32, Nodes: 16, Policy: scheduler.PolicyFCFS},
		{Tasks: 2048, Width: 64, Nodes: 64, Policy: scheduler.PolicyDataAware},
	}
	if full {
		cfgs = append(cfgs,
			ScaleConfig{Tasks: 4096, Width: 128, Nodes: 128, Policy: scheduler.PolicyDataAware},
			ScaleConfig{Tasks: 10240, Width: 256, Nodes: 256, Policy: scheduler.PolicyDataAware},
			ScaleConfig{Tasks: 10240, Width: 256, Nodes: 256, Policy: scheduler.PolicyAdaptiveGreedy},
			ScaleConfig{Tasks: 102400, Width: 1024, Nodes: 1024, Shards: 16, Policy: scheduler.PolicyDataAware},
		)
	}
	return cfgs
}

// ScaleSweep runs a ladder of configurations.
func ScaleSweep(cfgs []ScaleConfig) (*ScaleResult, error) {
	res := &ScaleResult{}
	for _, cfg := range cfgs {
		pt, err := Scale(cfg)
		if err != nil {
			return nil, fmt.Errorf("scale %d tasks / %d nodes / %s: %w", cfg.Tasks, cfg.Nodes, cfg.Policy, err)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// JSON serializes the result for BENCH_scale.json.
func (r *ScaleResult) JSON() []byte {
	b, _ := json.MarshalIndent(r, "", "  ")
	return append(b, '\n')
}
