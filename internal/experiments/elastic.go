package experiments

import (
	"encoding/json"
	"fmt"

	"hiway/internal/autoscale"
	"hiway/internal/chaos"
	"hiway/internal/obs"
	"hiway/internal/service"
	"hiway/internal/yarn"
)

// ElasticLoadConfig describes one elastic service run: the standard tenant
// mix submitting into a cluster whose size is governed by an autoscaling
// policy, optionally under spot-preemption chaos. Seed, DurationSec, RateX
// and the admission limits mean what they mean in ServiceLoadConfig, and
// default the same way.
type ElasticLoadConfig struct {
	Seed        int64
	DurationSec float64
	RateX       float64

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

	MaxConcurrent int
	MaxQueue      int

	WithObs bool // build the observability layer (metrics snapshot)
}

func (c *ElasticLoadConfig) setDefaults() {
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
	Point ElasticPoint
	Stats *service.Stats
	Obs   *obs.Obs
}

// ElasticLoad runs ServiceLoad's driver on a fleet that starts at the
// policy's floor, with the autoscaler and (optionally) spot-preemption chaos
// armed before the first arrival, and measures goodput, tail wait, and cost.
// Everything derives from the seed and virtual time, so same-seed runs are
// byte-identical.
func ElasticLoad(cfg ElasticLoadConfig) (*ElasticRun, error) {
	cfg.setDefaults()
	pol := autoscale.NewPolicy(cfg.Autoscale, cfg.StaticNodes)
	if pol == nil {
		return nil, fmt.Errorf("elastic load: unknown autoscale policy %q", cfg.Autoscale)
	}
	// The static policy's fleet starts, and stays, at its fixed size;
	// elastic policies start at the floor.
	minNodes, maxNodes := cfg.MinNodes, cfg.MaxNodes
	if cfg.Autoscale == "static" {
		minNodes, maxNodes = cfg.StaticNodes, cfg.StaticNodes
	}
	var mgr *autoscale.Manager
	var ctl *autoscale.Controller
	var rm *yarn.ResourceManager
	run, err := serviceLoad(ServiceLoadConfig{
		Seed:          cfg.Seed,
		Nodes:         minNodes,
		DurationSec:   cfg.DurationSec,
		RateX:         cfg.RateX,
		MaxConcurrent: cfg.MaxConcurrent,
		MaxQueue:      cfg.MaxQueue,
		RetryLimit:    1,
		WithObs:       cfg.WithObs,
	}, loadVariant{
		name:        "elastic-load",
		switchNodes: cfg.MaxNodes,
		taskCPU:     cfg.TaskCPUSeconds,
		amNode:      "node-00", // AMs stay on the protected node
		arm: func(l *loadEnv) {
			rm = l.RM
			mgr = autoscale.NewManager(l.Cluster, l.RM, l.FS, autoscale.ManagerConfig{
				Spec:          l.spec,
				SpotNoticeSec: cfg.SpotNoticeSec,
				Protected:     []string{"node-00"},
			})
			mgr.SetObs(l.obs)
			svc, window := l.svc, l.cfg.DurationSec
			ctl = autoscale.NewController(l.eng, mgr, pol, func() autoscale.Signals {
				return autoscale.Signals{
					QueueDepth:      svc.QueueDepth(),
					Running:         svc.Running(),
					PendingRequests: rm.QueuedRequests(),
					AllocLatencySec: rm.AllocLatencyEWMA(),
				}
			}, autoscale.ControllerConfig{
				MinNodes:   minNodes,
				MaxNodes:   maxNodes,
				HorizonSec: window * 4,
				Done: func() bool {
					return l.eng.Now() > window && svc.QueueDepth() == 0 && svc.Running() == 0
				},
			})
			ctl.SetObs(l.obs)
			ctl.Start()
			if cfg.SpotRate > 0 {
				plan := chaos.NewPlan(cfg.Seed)
				plan.SpotRate, plan.SpotNoticeSec, plan.SpotEverySec = cfg.SpotRate, cfg.SpotNoticeSec, cfg.SpotEverySec
				plan.ArmSpot(l.eng, mgr, window)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	st := run.Stats
	pt := ElasticPoint{
		Autoscale:   cfg.Autoscale,
		RateX:       run.Point.RateX,
		DurationSec: run.Point.DurationSec,
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

		Preempted:  rm.Preempted(),
		Joins:      mgr.Joins,
		Leaves:     mgr.Leaves,
		Notices:    mgr.Notices,
		ScaleUps:   ctl.ScaleUps,
		ScaleDowns: ctl.ScaleDowns,
		Flaps:      ctl.Flaps,
		FinalNodes: mgr.Size(),

		WallSec: run.Point.WallSec,
	}
	return &ElasticRun{Point: pt, Stats: st, Obs: run.Obs}, nil
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
