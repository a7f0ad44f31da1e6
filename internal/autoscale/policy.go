package autoscale

import "math"

// Signals is the load snapshot a Policy sizes the cluster from. The service
// tier supplies queue depth and backlog; the RM supplies allocation
// pressure.
type Signals struct {
	// QueueDepth is the service admission queue length (workflows waiting
	// to be admitted).
	QueueDepth int
	// Running is the number of workflows currently executing.
	Running int
	// PendingRequests is the RM-wide count of container requests waiting
	// for capacity.
	PendingRequests int
	// AllocLatencySec is the RM's recent request→allocation latency (EWMA).
	AllocLatencySec float64
}

// Backlog is the total demand in workflows: queued plus running.
func (s Signals) Backlog() int { return s.QueueDepth + s.Running }

// Policy maps a load snapshot to a desired cluster size. Implementations
// may keep state across evaluations (the predictive policy does); they are
// evaluated at deterministic virtual times, so stateful policies stay
// reproducible.
type Policy interface {
	// Desired returns the target node count given the signals and the
	// current size. The controller clamps the result to [MinNodes,
	// MaxNodes] and applies hysteresis and cooldown.
	Desired(now float64, s Signals, current int) int
}

// Static pins the cluster at a fixed size — the over-provisioned baseline
// every elastic policy is judged against.
type Static struct {
	// Nodes is the fixed target size.
	Nodes int
}

// Desired implements Policy.
func (p *Static) Desired(now float64, s Signals, current int) int { return p.Nodes }

// Reactive sizes the cluster proportionally to the current backlog, with an
// allocation-latency escape hatch: when containers wait too long for
// capacity, it asks for one more node than it has regardless of backlog.
type Reactive struct {
	// PerNode is how many concurrent workflows one node is expected to
	// carry. Default 1.
	PerNode float64
	// LatencyHighSec triggers the +1 escalation. Default 5s.
	LatencyHighSec float64
}

// Desired implements Policy.
func (p *Reactive) Desired(now float64, s Signals, current int) int {
	perNode := p.PerNode
	if perNode <= 0 {
		perNode = 1
	}
	latHigh := p.LatencyHighSec
	if latHigh <= 0 {
		latHigh = 5
	}
	desired := int(math.Ceil(float64(s.Backlog()) / perNode))
	if s.AllocLatencySec > latHigh && s.PendingRequests > 0 && desired <= current {
		desired = current + 1
	}
	return desired
}

// Predictive extrapolates demand: it tracks an exponentially weighted
// moving average of the backlog and its per-evaluation trend, and sizes the
// cluster for the forecast a few evaluations ahead — so capacity arrives
// before a building burst peaks, at the price of overshooting on spikes
// that immediately recede.
type Predictive struct {
	// PerNode is how many concurrent workflows one node is expected to
	// carry. Default 1.
	PerNode float64
	// Alpha is the EWMA smoothing factor in (0,1]. Default 0.4.
	Alpha float64
	// LeadEvals is how many evaluations ahead to forecast. Default 3.
	LeadEvals int
	// LatencyHighSec triggers the +1 escalation, as in Reactive. Default 5s.
	LatencyHighSec float64

	initialized bool
	ewma        float64
	trend       float64
}

// Desired implements Policy.
func (p *Predictive) Desired(now float64, s Signals, current int) int {
	perNode := p.PerNode
	if perNode <= 0 {
		perNode = 1
	}
	alpha := p.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.4
	}
	lead := p.LeadEvals
	if lead <= 0 {
		lead = 3
	}
	latHigh := p.LatencyHighSec
	if latHigh <= 0 {
		latHigh = 5
	}
	demand := float64(s.Backlog())
	if !p.initialized {
		p.initialized = true
		p.ewma = demand
	} else {
		prev := p.ewma
		p.ewma = alpha*demand + (1-alpha)*p.ewma
		p.trend = alpha*(p.ewma-prev) + (1-alpha)*p.trend
	}
	forecast := p.ewma + float64(lead)*p.trend
	if forecast < 0 {
		forecast = 0
	}
	desired := int(math.Ceil(forecast / perNode))
	if s.AllocLatencySec > latHigh && s.PendingRequests > 0 && desired <= current {
		desired = current + 1
	}
	return desired
}

// NewPolicy builds a policy by name ("static", "reactive", "predictive")
// with default tuning; staticNodes sizes the static policy. Unknown names
// return nil.
func NewPolicy(name string, staticNodes int) Policy {
	switch name {
	case "static":
		return &Static{Nodes: staticNodes}
	case "reactive":
		return &Reactive{}
	case "predictive":
		return &Predictive{}
	}
	return nil
}
