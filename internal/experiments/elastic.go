package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"hiway/internal/autoscale"
	"hiway/internal/chaos"
	"hiway/internal/hdfs"
	"hiway/internal/obs"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/service"
	"hiway/internal/yarn"
)

// ElasticLoadConfig describes one elastic service run: the standard tenant
// mix submitting into a cluster whose size is governed by an autoscaling
// policy, optionally under spot-preemption chaos.
type ElasticLoadConfig struct {
	Seed        int64
	DurationSec float64 // arrival window; default 1800
	RateX       float64 // arrival-rate multiplier; default 1

	// Autoscale names the sizing policy: "static", "reactive", or
	// "predictive". Default static.
	Autoscale string
	// StaticNodes is the static policy's fixed (over-provisioned) size.
	// Default 10.
	StaticNodes int
	// MinNodes and MaxNodes clamp the elastic policies; the cluster starts
	// at MinNodes. Defaults 2 and 12.
	MinNodes int
	MaxNodes int

	// SpotRate, when positive, arms spot-preemption chaos: each spot node
	// draws reclamation with this probability every SpotEverySec during the
	// arrival window, with SpotNoticeSec between notice and reclaim.
	SpotRate      float64
	SpotNoticeSec float64 // default 120
	SpotEverySec  float64 // default 60

	// TaskCPUSeconds sets every task's CPU demand. The elastic ladder
	// defaults to 180s — longer than the 120s spot notice, so reclaims
	// catch containers mid-task and the preemption path is actually
	// measured rather than dodged by short tasks.
	TaskCPUSeconds float64

	MaxConcurrent int     // admitted-AM cap; default 4
	MaxQueue      int     // backpressure threshold; default 16
	RetryAfterSec float64 // client retry delay after rejection; default 30
	RetryLimit    int     // client retries before dropping; default 1
	Policy        string  // per-workflow scheduling policy; default fcfs

	WithObs bool // build the observability layer (metrics snapshot)
}

func (c *ElasticLoadConfig) setDefaults() {
	if c.DurationSec <= 0 {
		c.DurationSec = 1800
	}
	if c.RateX <= 0 {
		c.RateX = 1
	}
	if c.Autoscale == "" {
		c.Autoscale = "static"
	}
	if c.StaticNodes <= 0 {
		c.StaticNodes = 10
	}
	if c.MinNodes <= 0 {
		c.MinNodes = 2
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 12
	}
	if c.SpotNoticeSec <= 0 {
		c.SpotNoticeSec = 120
	}
	if c.SpotEverySec <= 0 {
		c.SpotEverySec = 60
	}
	if c.TaskCPUSeconds <= 0 {
		c.TaskCPUSeconds = 180
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.Policy == "" {
		c.Policy = scheduler.PolicyFCFS
	}
}

// initialNodes is the cluster size at t=0: the static policy starts (and
// stays) at its fixed size, elastic policies start at the floor.
func (c *ElasticLoadConfig) initialNodes() int {
	if c.Autoscale == "static" {
		return c.StaticNodes
	}
	return c.MinNodes
}

// ElasticPoint is one elastic-ladder measurement: goodput and tail latency
// against the cost the policy paid for them.
type ElasticPoint struct {
	Autoscale   string  `json:"autoscale"`
	RateX       float64 `json:"rateX"`
	DurationSec float64 `json:"durationSec"`
	SpotRate    float64 `json:"spotRate"`
	MinNodes    int     `json:"minNodes"`
	MaxNodes    int     `json:"maxNodes"`

	Submitted int `json:"submitted"`
	Admitted  int `json:"admitted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Dropped   int `json:"dropped"`

	GoodputPerHour  float64 `json:"goodputPerHour"`
	QueueWaitP99Sec float64 `json:"queueWaitP99Sec"`
	E2EP99Sec       float64 `json:"e2eP99Sec"`

	// Cost: node-seconds billed per class and the blended price
	// (yarn.CostReport.CostUnits: on-demand 1.0, spot 0.3).
	OnDemandNodeSec float64 `json:"onDemandNodeSec"`
	SpotNodeSec     float64 `json:"spotNodeSec"`
	CostUnits       float64 `json:"costUnits"`

	// Churn accounting.
	Preempted  int `json:"preempted"`
	Joins      int `json:"joins"`
	Leaves     int `json:"leaves"`
	Notices    int `json:"notices"`
	ScaleUps   int `json:"scaleUps"`
	ScaleDowns int `json:"scaleDowns"`
	Flaps      int `json:"flaps"`
	FinalNodes int `json:"finalNodes"`

	WallSec float64 `json:"wallSec"`
}

// ElasticRun bundles one elastic run's outputs.
type ElasticRun struct {
	Point    ElasticPoint
	Stats    *service.Stats
	Accounts []*service.Account
	Obs      *obs.Obs
}

// ElasticLoad materializes the starting cluster, wires the autoscaler and
// (optionally) spot-preemption chaos, runs one sustained open-loop load
// until the service drains, and measures goodput, tail wait, and cost.
// Everything derives from the seed and virtual time, so same-seed runs are
// byte-identical.
func ElasticLoad(cfg ElasticLoadConfig) (*ElasticRun, error) {
	cfg.setDefaults()
	mix := ServiceTenantMix(cfg.RateX)
	for i := range mix {
		mix[i].Workload.CPUSeconds = cfg.TaskCPUSeconds
	}
	r := &recipes.Recipe{
		Name:       "elastic-load",
		Groups:     []recipes.NodeGroup{{Count: cfg.initialNodes(), Spec: svcNodeSpec()}},
		SwitchMBps: 100 * float64(cfg.MaxNodes),
		HDFS:       hdfs.Config{},
		YARN: yarn.Config{
			Fair:       true,
			AMResource: yarn.Resource{VCores: 0, MemMB: 256},
			Tenants:    service.TenantPolicies(mix),
		},
		Seed: cfg.Seed,
	}
	e, err := buildEnv(r, nil)
	if err != nil {
		return nil, err
	}
	var o *obs.Obs
	if cfg.WithObs {
		o = obs.New(e.eng.Now)
		e.Env.Obs = o
		e.RM.SetObs(o)
		e.Prov.SetObs(o)
	}
	svcCfg := service.Config{
		Seed:          cfg.Seed,
		DurationSec:   cfg.DurationSec,
		MaxConcurrent: cfg.MaxConcurrent,
		MaxQueue:      cfg.MaxQueue,
		RetryAfterSec: cfg.RetryAfterSec,
		RetryLimit:    cfg.RetryLimit,
		Policy:        cfg.Policy,
		AMNode:        "node-00", // AMs stay on the protected node
	}
	svc, err := service.New(e.eng, e.Env, svcCfg, mix)
	if err != nil {
		return nil, err
	}

	mgr := autoscale.NewManager(e.eng, e.Cluster, e.RM, e.FS, autoscale.ManagerConfig{
		Spec:          svcNodeSpec(),
		SpotNoticeSec: cfg.SpotNoticeSec,
		Protected:     []string{"node-00"},
		Rereplicate:   true,
	})
	if cfg.WithObs {
		mgr.SetObs(o)
	}
	pol := autoscale.NewPolicy(cfg.Autoscale, cfg.StaticNodes)
	if pol == nil {
		return nil, fmt.Errorf("elastic load: unknown autoscale policy %q", cfg.Autoscale)
	}
	minNodes, maxNodes := cfg.MinNodes, cfg.MaxNodes
	if cfg.Autoscale == "static" {
		minNodes, maxNodes = cfg.StaticNodes, cfg.StaticNodes
	}
	ctl := autoscale.NewController(e.eng, mgr, pol, func() autoscale.Signals {
		return autoscale.Signals{
			QueueDepth:      svc.QueueDepth(),
			Running:         svc.Running(),
			PendingRequests: e.RM.QueuedRequests(),
			AllocLatencySec: e.RM.AllocLatencyEWMA(),
		}
	}, autoscale.ControllerConfig{
		MinNodes:     minNodes,
		MaxNodes:     maxNodes,
		SpotScaleOut: true,
		HorizonSec:   cfg.DurationSec * 4,
		Done: func() bool {
			return e.eng.Now() > cfg.DurationSec && svc.QueueDepth() == 0 && svc.Running() == 0
		},
	})
	if cfg.WithObs {
		ctl.SetObs(o)
	}
	ctl.Start()

	if cfg.SpotRate > 0 {
		plan := chaos.NewPlan(cfg.Seed).WithSpotRate(cfg.SpotRate)
		plan.SpotNoticeSec = cfg.SpotNoticeSec
		plan.SpotEverySec = cfg.SpotEverySec
		plan.ArmSpot(e.eng, mgr, cfg.DurationSec)
	}

	start := time.Now()
	svc.Start()
	e.eng.Run()
	wall := time.Since(start).Seconds()
	if svc.QueueDepth() != 0 || svc.Running() != 0 {
		return nil, fmt.Errorf("elastic load: engine quiesced with %d queued, %d running",
			svc.QueueDepth(), svc.Running())
	}
	st := svc.Stats()
	pt := ElasticPoint{
		Autoscale:   cfg.Autoscale,
		RateX:       cfg.RateX,
		DurationSec: cfg.DurationSec,
		SpotRate:    cfg.SpotRate,
		MinNodes:    minNodes,
		MaxNodes:    maxNodes,

		Submitted: st.Submitted,
		Admitted:  st.Admitted,
		Succeeded: st.Succeeded,
		Failed:    st.Failed,
		Dropped:   st.Dropped,

		GoodputPerHour:  st.GoodputPerHour,
		QueueWaitP99Sec: st.QueueWaitP99Sec,
		E2EP99Sec:       st.E2EP99Sec,

		OnDemandNodeSec: st.OnDemandNodeSec,
		SpotNodeSec:     st.SpotNodeSec,
		CostUnits:       st.CostUnits,

		Preempted:  e.RM.Preempted(),
		Joins:      mgr.Joins,
		Leaves:     mgr.Leaves,
		Notices:    mgr.Notices,
		ScaleUps:   ctl.ScaleUps,
		ScaleDowns: ctl.ScaleDowns,
		Flaps:      ctl.Flaps,
		FinalNodes: mgr.Size(),

		WallSec: wall,
	}
	return &ElasticRun{Point: pt, Stats: st, Accounts: svc.Accounts(), Obs: o}, nil
}

// Render formats one elastic run for the CLI: the service outcome, the
// fleet's churn ledger, and the bill. Deterministic — wall-clock time is
// deliberately absent, so same-seed runs print byte-identical reports.
func (r *ElasticRun) Render() string {
	p, st := r.Point, r.Stats
	out := fmt.Sprintf("submitted %d  admitted %d  succeeded %d  failed %d  rejected %d  dropped %d\n",
		st.Submitted, st.Admitted, st.Succeeded, st.Failed, st.Rejections, st.Dropped)
	out += fmt.Sprintf("goodput %.1f/h  queue-wait p50 %.1fs p99 %.1fs  e2e p99 %.1fs\n",
		st.GoodputPerHour, st.QueueWaitP50Sec, st.QueueWaitP99Sec, st.E2EP99Sec)
	out += fmt.Sprintf("fleet: %s policy, %d..%d nodes, final %d  scale-ups %d  scale-downs %d  flaps %d\n",
		p.Autoscale, p.MinNodes, p.MaxNodes, p.FinalNodes, p.ScaleUps, p.ScaleDowns, p.Flaps)
	out += fmt.Sprintf("churn: joins %d  leaves %d  spot-notices %d  preempted containers %d\n",
		p.Joins, p.Leaves, p.Notices, p.Preempted)
	out += fmt.Sprintf("cost: on-demand %.0f node-sec  spot %.0f node-sec  %.0f cost-units\n",
		p.OnDemandNodeSec, p.SpotNodeSec, p.CostUnits)
	return out
}

// ElasticResult is the full elastic ladder, serialized to BENCH_elastic.json.
type ElasticResult struct {
	Points []ElasticPoint `json:"points"`
}

// ElasticSweepConfigs is the elastic ladder: the three autoscaling policies,
// each without chaos and under spot-preemption chaos — the grid the
// goodput-vs-cost claims are judged on. The short variant trims the arrival
// window; full (HIWAY_SCALE_FULL) runs the paper-scale window.
func ElasticSweepConfigs(full bool) []ElasticLoadConfig {
	duration := 900.0
	if full {
		duration = 1800
	}
	var cfgs []ElasticLoadConfig
	for _, pol := range []string{"static", "reactive", "predictive"} {
		for _, spotRate := range []float64{0, 0.3} {
			cfgs = append(cfgs, ElasticLoadConfig{
				Seed:        1,
				DurationSec: duration,
				Autoscale:   pol,
				SpotRate:    spotRate,
			})
		}
	}
	return cfgs
}

// ElasticSweep runs the ladder.
func ElasticSweep(cfgs []ElasticLoadConfig) (*ElasticResult, error) {
	res := &ElasticResult{}
	for _, cfg := range cfgs {
		run, err := ElasticLoad(cfg)
		if err != nil {
			return nil, fmt.Errorf("elastic load %s spot %.2g: %w", cfg.Autoscale, cfg.SpotRate, err)
		}
		res.Points = append(res.Points, run.Point)
	}
	return res, nil
}

// JSON serializes the result for BENCH_elastic.json.
func (r *ElasticResult) JSON() []byte {
	b, _ := json.MarshalIndent(r, "", "  ")
	return append(b, '\n')
}

// Render formats the ladder as an aligned text table (no wall-clock values,
// so same-seed renders are byte-identical).
func (r *ElasticResult) Render() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Autoscale, fmt.Sprintf("%.2g", p.SpotRate),
			fmt.Sprint(p.Submitted), fmt.Sprint(p.Succeeded), fmt.Sprint(p.Failed),
			fmt.Sprintf("%.1f", p.GoodputPerHour),
			fmt.Sprintf("%.1f", p.QueueWaitP99Sec),
			fmt.Sprintf("%.0f", p.OnDemandNodeSec), fmt.Sprintf("%.0f", p.SpotNodeSec),
			fmt.Sprintf("%.0f", p.CostUnits),
			fmt.Sprint(p.Preempted), fmt.Sprint(p.ScaleUps), fmt.Sprint(p.ScaleDowns), fmt.Sprint(p.Flaps),
			fmt.Sprint(p.FinalNodes),
		})
	}
	return table(
		[]string{"policy", "spot", "submitted", "ok", "fail", "goodput/h", "p99-wait", "od-nodesec", "spot-nodesec", "cost", "preempted", "ups", "downs", "flaps", "final"},
		rows,
	)
}
