package autoscale

import (
	"hiway/internal/obs"
	"hiway/internal/sim"
)

// The control loop's tuning. Every caller ran the autoscaler at these
// values, so they are constants rather than settings.
const (
	intervalSec = 30 // evaluation period
	cooldownSec = 90 // minimum gap between two scale actions
	// Consecutive agreeing evaluations before scaling up and down. Down is
	// more conservative so a brief lull does not shed capacity a burst
	// still needs.
	upAfter   = 2
	downAfter = 4
)

// ControllerConfig bounds the autoscaling control loop.
type ControllerConfig struct {
	// MinNodes and MaxNodes clamp the desired size. MinNodes defaults to 1;
	// MaxNodes defaults to unbounded.
	MinNodes int
	MaxNodes int
	// HorizonSec stops the loop after this virtual time, letting the
	// engine quiesce. Required: a controller without a horizon would tick
	// forever.
	HorizonSec float64
	// Done, when set, stops the loop early (e.g. when the service window
	// closed and the queue drained).
	Done func() bool
}

// Controller periodically evaluates a Policy against live Signals and
// resizes the cluster through the Manager, with hysteresis (consecutive
// evaluations must agree before acting) and a cooldown between actions so
// bursty arrivals do not make membership flap.
type Controller struct {
	eng *sim.Engine
	m   *Manager
	pol Policy
	sig func() Signals
	cfg ControllerConfig

	lastAction float64
	lastDir    int // +1 grew, -1 shrank, 0 never acted
	upStreak   int
	downStreak int

	// lifetime statistics, readable after a run
	ScaleUps, ScaleDowns, Flaps int

	desiredG *obs.Gauge
	actualG  *obs.Gauge
	upsC     *obs.Counter
	downsC   *obs.Counter
	flapsC   *obs.Counter
}

// NewController builds a control loop over the manager. sig is consulted
// once per evaluation. Scale-ups join spot nodes: they are the cheap,
// reclaimable capacity a burst is served from.
func NewController(eng *sim.Engine, m *Manager, pol Policy, sig func() Signals, cfg ControllerConfig) *Controller {
	if cfg.MinNodes <= 0 {
		cfg.MinNodes = 1
	}
	return &Controller{eng: eng, m: m, pol: pol, sig: sig, cfg: cfg, lastAction: -cooldownSec}
}

// SetObs attaches the hiway_autoscale_* metrics. A nil o (the default)
// disables them.
func (c *Controller) SetObs(o *obs.Obs) {
	m := o.M()
	c.desiredG = m.Gauge("hiway_autoscale_desired_nodes", "cluster size the policy wants")
	c.actualG = m.Gauge("hiway_autoscale_actual_nodes", "cluster size eligible for allocations")
	c.upsC = m.Counter("hiway_autoscale_scale_ups_total", "scale-up actions taken")
	c.downsC = m.Counter("hiway_autoscale_scale_downs_total", "scale-down actions taken")
	c.flapsC = m.Counter("hiway_autoscale_flaps_total", "scale actions that reversed the previous direction")
}

// Start schedules the first evaluation one interval from now. The loop
// re-arms itself until HorizonSec passes or Done reports true.
func (c *Controller) Start() {
	c.eng.Schedule(intervalSec, c.tick)
}

func (c *Controller) tick() {
	if c.cfg.Done != nil && c.cfg.Done() {
		return
	}
	c.evaluate()
	if c.eng.Now()+intervalSec <= c.cfg.HorizonSec {
		c.eng.Schedule(intervalSec, c.tick)
	}
}

func (c *Controller) evaluate() {
	now := c.eng.Now()
	cur := c.m.Size()
	des := c.pol.Desired(now, c.sig(), cur)
	if des < c.cfg.MinNodes {
		des = c.cfg.MinNodes
	}
	if c.cfg.MaxNodes > 0 && des > c.cfg.MaxNodes {
		des = c.cfg.MaxNodes
	}
	c.desiredG.Set(float64(des))
	c.actualG.Set(float64(cur))
	switch {
	case des > cur:
		c.upStreak++
		c.downStreak = 0
	case des < cur:
		c.downStreak++
		c.upStreak = 0
	default:
		c.upStreak = 0
		c.downStreak = 0
		return
	}
	if now-c.lastAction < cooldownSec {
		return
	}
	if des > cur && c.upStreak >= upAfter {
		c.m.AddNodes(des - cur)
		c.ScaleUps++
		c.upsC.Inc()
		if c.lastDir == -1 {
			c.Flaps++
			c.flapsC.Inc()
		}
		c.lastDir = 1
		c.lastAction = now
		c.upStreak = 0
	} else if des < cur && c.downStreak >= downAfter {
		c.m.RemoveNodes(cur - des)
		c.ScaleDowns++
		c.downsC.Inc()
		if c.lastDir == 1 {
			c.Flaps++
			c.flapsC.Inc()
		}
		c.lastDir = -1
		c.lastAction = now
		c.downStreak = 0
	}
}
