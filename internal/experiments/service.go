package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"hiway/internal/chaos"
	"hiway/internal/cluster"
	"hiway/internal/memo"
	"hiway/internal/obs"
	"hiway/internal/service"
)

// ServiceLoadConfig describes one sustained-load service run: the tenant
// mix of ServiceTenantMix submitting workflows at RateX times the base
// rates into an admission-controlled cluster of Nodes workers.
type ServiceLoadConfig struct {
	Seed        int64
	Nodes       int     // worker nodes; default 8
	DurationSec float64 // arrival window; default 1800
	RateX       float64 // arrival-rate multiplier; default 1

	// Admission control and the simulated clients' retries; zero values
	// take service.Config's defaults, except RetryLimit, where 0 means no
	// retry.
	MaxConcurrent int     // admitted-AM cap
	MaxQueue      int     // backpressure threshold
	RetryAfterSec float64 // client retry delay after rejection
	RetryLimit    int     // client retries before dropping
	Policy        string  // per-workflow scheduling policy

	ChaosSpec string // optional chaos plan (chaos.Parse DSL)
	ChaosSeed int64  // seed for chaos rate draws, taken as given (0 is a seed)

	// Memo shares one cluster-wide memo table across all workflows of the
	// run: repeated submissions of a tenant's pipeline splice completed
	// tasks instead of re-executing them.
	Memo bool

	WithObs bool // build the observability layer (metrics snapshot)
}

func (c *ServiceLoadConfig) setDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.DurationSec <= 0 {
		c.DurationSec = 1800
	}
	if c.RateX <= 0 {
		c.RateX = 1
	}
}

// ServiceTenantMix is the default multi-tenant traffic mix: a heavy
// weighted tenant, a bursty medium tenant, and a background (zero-weight)
// tenant, all scaled by the ladder's rate multiplier.
func ServiceTenantMix(rateX float64) []service.TenantProfile {
	return []service.TenantProfile{
		{
			Name: "genomics", Weight: 2, MaxContainers: 12,
			RatePerSec: 0.010 * rateX,
			Workload:   service.WorkloadSpec{Kind: service.WorkloadSNV},
		},
		{
			Name: "rnaseq", Weight: 1, MaxContainers: 8,
			RatePerSec: 0.004 * rateX, Burst: 2,
			Workload: service.WorkloadSpec{Kind: service.WorkloadSNV, FilesPerSample: 3},
		},
		{
			Name: "background", Weight: 0, MaxContainers: 4,
			RatePerSec: 0.003 * rateX,
			Workload:   service.WorkloadSpec{Kind: service.WorkloadSNV, FileSizeMB: 32, CPUSeconds: 20},
		},
	}
}

// ServicePoint is one ladder measurement: the service stats at a given
// arrival-rate multiplier.
type ServicePoint struct {
	RateX         float64 `json:"rateX"`
	Nodes         int     `json:"nodes"`
	DurationSec   float64 `json:"durationSec"`
	MaxConcurrent int     `json:"maxConcurrent"`
	MaxQueue      int     `json:"maxQueue"`
	Policy        string  `json:"policy"`

	Submitted  int `json:"submitted"`
	Admitted   int `json:"admitted"`
	Succeeded  int `json:"succeeded"`
	Failed     int `json:"failed"`
	Rejections int `json:"rejections"`
	Dropped    int `json:"dropped"`

	GoodputPerHour  float64 `json:"goodputPerHour"`
	RejectionRate   float64 `json:"rejectionRate"`
	QueueWaitP50Sec float64 `json:"queueWaitP50Sec"`
	QueueWaitP99Sec float64 `json:"queueWaitP99Sec"`
	QueueWaitMaxSec float64 `json:"queueWaitMaxSec"`
	E2EP50Sec       float64 `json:"e2eP50Sec"`
	E2EP99Sec       float64 `json:"e2eP99Sec"`

	// Memoization columns, present only on memo-enabled rungs (omitempty
	// keeps memo-off rows byte-identical to a memo-less build).
	Memo            bool    `json:"memo,omitempty"`
	MemoizedTasks   int     `json:"memoizedTasks,omitempty"`
	MemoHits        int64   `json:"memoHits,omitempty"`
	MemoHitRate     float64 `json:"memoHitRate,omitempty"`
	MemoCPUSavedSec float64 `json:"memoCPUSavedSec,omitempty"`

	WallSec float64 `json:"wallSec"`
}

// ServiceRun bundles one load run's outputs: the ladder point, the full
// stats, the per-workflow accounts, and (with WithObs) the observability
// layer for metric snapshots.
type ServiceRun struct {
	Point    ServicePoint
	Stats    *service.Stats
	Accounts []*service.Account
	Obs      *obs.Obs
}

// ServiceLoad materializes a cluster for the tenant mix, runs one sustained
// open-loop load until the service drains, and measures it. When a workflow
// stalls, the run still drains and is measured: ServiceLoad returns it with
// an error that names each stall.
func ServiceLoad(cfg ServiceLoadConfig) (*ServiceRun, error) {
	return serviceLoad(cfg, loadVariant{name: "service-load"})
}

// loadVariant is what a load harness changes about serviceLoad's run.
type loadVariant struct {
	name        string  // recipe name, and the prefix of serviceLoad's errors
	switchNodes int     // nodes the switch is sized for; default cfg.Nodes
	taskCPU     float64 // every task's CPU seconds; 0 keeps the mix's own
	amNode      string  // pins every AM to this node
	// arm, if set, wires what the variant adds between service.New and
	// Start, before the engine sees the first arrival.
	arm func(l *loadEnv)
}

// loadEnv is one load run's substrate and service, as arm sees them.
type loadEnv struct {
	*env
	cfg  ServiceLoadConfig // defaults resolved
	spec cluster.NodeSpec  // the worker node the recipe materialized
	svc  *service.Service
	obs  *obs.Obs // nil unless cfg.WithObs
}

// serviceLoad is the load harnesses' one driver: the service-tier recipe,
// observability, chaos and memo wiring, service.Config, the run to
// quiescence, and the drain check.
func serviceLoad(cfg ServiceLoadConfig, v loadVariant) (*ServiceRun, error) {
	cfg.setDefaults()
	mix := ServiceTenantMix(cfg.RateX)
	if v.taskCPU > 0 {
		for i := range mix {
			mix[i].Workload.CPUSeconds = v.taskCPU
		}
	}
	if v.switchNodes == 0 {
		v.switchNodes = cfg.Nodes
	}
	r := service.TierRecipe(v.name, cfg.Nodes, v.switchNodes, service.TenantPolicies(mix), cfg.Seed)
	e, err := buildEnv(r, nil)
	if err != nil {
		return nil, err
	}
	l := &loadEnv{env: e, cfg: cfg, spec: r.Groups[0].Spec}
	if cfg.WithObs {
		l.obs = obs.New(e.eng.Now)
		e.Env.Obs = l.obs
		e.RM.SetObs(l.obs)
		e.Prov.SetObs(l.obs)
	}
	svcCfg := service.Config{
		Seed:          cfg.Seed,
		DurationSec:   cfg.DurationSec,
		MaxConcurrent: cfg.MaxConcurrent,
		MaxQueue:      cfg.MaxQueue,
		RetryAfterSec: cfg.RetryAfterSec,
		RetryLimit:    cfg.RetryLimit,
		Policy:        cfg.Policy,
		AMNode:        v.amNode,
	}
	if cfg.ChaosSpec != "" {
		plan, err := chaos.Parse(cfg.ChaosSpec, cfg.ChaosSeed)
		if err != nil {
			return nil, err
		}
		plan.Arm(e.eng, e.RM, e.FS, e.Cluster)
		svcCfg.Chaos = plan
	}
	if cfg.Memo {
		svcCfg.Memo = memo.New(0)
	}
	if l.svc, err = service.New(e.eng, e.Env, svcCfg, mix); err != nil {
		return nil, err
	}
	if v.arm != nil {
		v.arm(l)
	}
	start := time.Now()
	l.svc.Start()
	// A workflow the engine quiesced on stalled: end it, and run what its
	// freed slot admits.
	var stalls []error
	for {
		e.eng.Run()
		err := l.svc.EndStalled()
		if err == nil {
			break
		}
		stalls = append(stalls, err)
	}
	wall := time.Since(start).Seconds()
	if d, n := l.svc.QueueDepth(), l.svc.Running(); d != 0 || n != 0 {
		return nil, fmt.Errorf("%s: engine quiesced with %d queued, %d running", v.name, d, n)
	}
	st := l.svc.Stats()
	pt := ServicePoint{
		RateX:         cfg.RateX,
		Nodes:         cfg.Nodes,
		DurationSec:   cfg.DurationSec,
		MaxConcurrent: st.MaxConcurrent,
		MaxQueue:      st.MaxQueue,
		Policy:        st.Policy,

		Submitted:  st.Submitted,
		Admitted:   st.Admitted,
		Succeeded:  st.Succeeded,
		Failed:     st.Failed,
		Rejections: st.Rejections,
		Dropped:    st.Dropped,

		GoodputPerHour:  st.GoodputPerHour,
		RejectionRate:   st.RejectionRate,
		QueueWaitP50Sec: st.QueueWaitP50Sec,
		QueueWaitP99Sec: st.QueueWaitP99Sec,
		QueueWaitMaxSec: st.QueueWaitMaxSec,
		E2EP50Sec:       st.E2EP50Sec,
		E2EP99Sec:       st.E2EP99Sec,

		WallSec: wall,
	}
	if cfg.Memo {
		pt.Memo = true
		pt.MemoizedTasks = st.MemoizedTasks
		pt.MemoHits = st.MemoHits
		if st.MemoLookups > 0 {
			pt.MemoHitRate = float64(st.MemoHits) / float64(st.MemoLookups)
		}
		pt.MemoCPUSavedSec = st.MemoCPUSavedSec
	}
	run := &ServiceRun{Point: pt, Stats: st, Accounts: l.svc.Accounts(), Obs: l.obs}
	if len(stalls) > 0 {
		return run, fmt.Errorf("%s: %w", v.name, errors.Join(stalls...))
	}
	return run, nil
}

// Render formats one run's summary, per-tenant breakdown, and per-workflow
// accounts as deterministic text (no wall-clock values), so same-seed runs
// print byte-identical reports — the property the soak e2e test pins.
func (r *ServiceRun) Render() string {
	st := r.Stats
	out := fmt.Sprintf("submitted %d  admitted %d  succeeded %d  failed %d  rejected %d  dropped %d\n",
		st.Submitted, st.Admitted, st.Succeeded, st.Failed, st.Rejections, st.Dropped)
	out += fmt.Sprintf("goodput %.1f/h  rejection-rate %.3f  queue-wait p50 %.1fs p99 %.1fs max %.1fs  e2e p50 %.1fs p99 %.1fs\n",
		st.GoodputPerHour, st.RejectionRate,
		st.QueueWaitP50Sec, st.QueueWaitP99Sec, st.QueueWaitMaxSec,
		st.E2EP50Sec, st.E2EP99Sec)
	if r.Point.Memo {
		out += fmt.Sprintf("memo: %d tasks spliced, %d/%d lookups hit, %.1f cpu-seconds saved\n",
			st.MemoizedTasks, st.MemoHits, st.MemoLookups, st.MemoCPUSavedSec)
	}
	out += "\n"

	names := make([]string, 0, len(st.Tenants))
	for n := range st.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	tenantRows := make([][]string, 0, len(names))
	for _, n := range names {
		ts := st.Tenants[n]
		tenantRows = append(tenantRows, []string{
			n, fmt.Sprint(ts.Submitted), fmt.Sprint(ts.Admitted), fmt.Sprint(ts.Succeeded),
			fmt.Sprint(ts.Failed), fmt.Sprint(ts.Rejections), fmt.Sprint(ts.Dropped),
			fmt.Sprintf("%.1f", ts.QueueWaitP50Sec), fmt.Sprintf("%.1f", ts.QueueWaitP99Sec),
			fmt.Sprintf("%.1f", ts.E2EP99Sec),
		})
	}
	out += table(
		[]string{"tenant", "submitted", "admitted", "ok", "fail", "rejected", "dropped", "p50-wait", "p99-wait", "p99-e2e"},
		tenantRows,
	)

	accRows := make([][]string, 0, len(r.Accounts))
	for _, a := range r.Accounts {
		status := "ok"
		switch {
		case a.Dropped:
			status = "dropped"
		case !a.Succeeded:
			status = "FAILED"
		}
		accRows = append(accRows, []string{
			a.ID, a.Tenant,
			fmt.Sprintf("%.1f", a.SubmitAt), fmt.Sprintf("%.1f", a.AdmitAt), fmt.Sprintf("%.1f", a.EndAt),
			fmt.Sprintf("%.1f", a.QueueWaitSec), fmt.Sprintf("%.1f", a.MakespanSec), fmt.Sprintf("%.1f", a.E2ESec),
			fmt.Sprint(a.Tasks), fmt.Sprint(a.Rejections), status,
		})
	}
	out += "\nworkflow accounts:\n" + table(
		[]string{"workflow", "tenant", "submit", "admit", "end", "wait", "makespan", "e2e", "tasks", "rejects", "status"},
		accRows,
	)
	return out
}

// ServiceResult is the full ladder output, serialized to BENCH_service.json.
type ServiceResult struct {
	Points []ServicePoint `json:"points"`
}

// ServiceSweepConfigs is the default arrival-rate ladder: from light load
// through saturation into overload, where admission control must keep p99
// queue wait bounded while goodput plateaus.
func ServiceSweepConfigs(full bool) []ServiceLoadConfig {
	rates := []float64{0.25, 0.5, 1}
	if full {
		rates = append(rates, 2, 4)
	}
	cfgs := make([]ServiceLoadConfig, 0, len(rates))
	for _, rx := range rates {
		cfgs = append(cfgs, ServiceLoadConfig{Seed: 1, RateX: rx, RetryLimit: 1})
	}
	return cfgs
}

// ServiceSweep runs the ladder.
func ServiceSweep(cfgs []ServiceLoadConfig) (*ServiceResult, error) {
	res := &ServiceResult{}
	for _, cfg := range cfgs {
		run, err := ServiceLoad(cfg)
		if err != nil {
			return nil, fmt.Errorf("service load x%.2g: %w", cfg.RateX, err)
		}
		res.Points = append(res.Points, run.Point)
	}
	return res, nil
}

// JSON serializes the result for BENCH_service.json.
func (r *ServiceResult) JSON() []byte {
	b, _ := json.MarshalIndent(r, "", "  ")
	return append(b, '\n')
}

// Render formats the ladder as an aligned text table.
func (r *ServiceResult) Render() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		memoCol := "off"
		if p.Memo {
			memoCol = fmt.Sprintf("%d hits", p.MemoHits)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2g", p.RateX), fmt.Sprint(p.Nodes),
			fmt.Sprint(p.Submitted), fmt.Sprint(p.Admitted), fmt.Sprint(p.Succeeded),
			fmt.Sprint(p.Rejections), fmt.Sprint(p.Dropped),
			fmt.Sprintf("%.1f", p.GoodputPerHour),
			fmt.Sprintf("%.3f", p.RejectionRate),
			fmt.Sprintf("%.1f", p.QueueWaitP99Sec),
			fmt.Sprintf("%.1f", p.E2EP99Sec),
			memoCol,
			fmt.Sprintf("%.3f", p.WallSec),
		})
	}
	return table(
		[]string{"rate-x", "nodes", "submitted", "admitted", "ok", "rejected", "dropped", "goodput/h", "rej-rate", "p99-wait", "p99-e2e", "memo", "wall-s"},
		rows,
	)
}
