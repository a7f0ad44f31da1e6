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

// The elastic policies' tuning. Every caller built them through NewPolicy
// at these values, so they are constants rather than settings. Both size
// the cluster at one node per concurrent workflow, the unit the service
// tier admits.
const (
	latencyHighSec = 5   // allocation latency that triggers escalate
	alpha          = 0.4 // Predictive's EWMA smoothing factor
	leadEvals      = 3   // evaluations ahead Predictive forecasts
)

// escalate applies the allocation-latency escape hatch: when containers
// wait too long for capacity, the policy asks for one more node than it
// has, whatever the backlog says.
func escalate(desired int, s Signals, current int) int {
	if s.AllocLatencySec > latencyHighSec && s.PendingRequests > 0 && desired <= current {
		return current + 1
	}
	return desired
}

// Reactive sizes the cluster to the current backlog, with the
// allocation-latency escape hatch.
type Reactive struct{}

// Desired implements Policy.
func (p *Reactive) Desired(now float64, s Signals, current int) int {
	return escalate(s.Backlog(), s, current)
}

// Predictive extrapolates demand: it tracks an exponentially weighted
// moving average of the backlog and its per-evaluation trend, and sizes the
// cluster for the forecast a few evaluations ahead — so capacity arrives
// before a building burst peaks, at the price of overshooting on spikes
// that immediately recede. It shares Reactive's escape hatch.
type Predictive struct {
	initialized bool
	ewma        float64
	trend       float64
}

// Desired implements Policy.
func (p *Predictive) Desired(now float64, s Signals, current int) int {
	demand := float64(s.Backlog())
	if !p.initialized {
		p.initialized = true
		p.ewma = demand
	} else {
		prev := p.ewma
		p.ewma = float64(alpha*demand) + float64((1-alpha)*p.ewma)
		p.trend = float64(alpha*(p.ewma-prev)) + float64((1-alpha)*p.trend)
	}
	forecast := p.ewma + float64(leadEvals*p.trend)
	if forecast < 0 {
		forecast = 0
	}
	return escalate(int(math.Ceil(forecast)), s, current)
}

// NewPolicy builds a policy by name ("static", "reactive", "predictive");
// staticNodes sizes the static policy. Unknown names return nil.
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
