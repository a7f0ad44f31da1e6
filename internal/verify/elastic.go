package verify

import (
	"fmt"
	"math/rand"

	"hiway/internal/autoscale"
	"hiway/internal/sim"
	"hiway/internal/yarn"
)

// ElasticEvent is one scheduled membership transition of an elastic plan.
type ElasticEvent struct {
	AtSec float64 `json:"atSec"`
	// Kind is "join" (on-demand node), "join-spot" (preemptible node),
	// "drain" (graceful decommission with the plan's deadline), or "spot"
	// (two-phase notice→reclaim preemption).
	Kind string `json:"kind"`
	Node string `json:"node"`
}

// ElasticSpec is a seeded membership plan applied to every policy run of a
// scenario: nodes join, drain, and get spot-reclaimed at fixed virtual
// times, driven through the autoscale Manager so each transition exercises
// the full cluster/RM/HDFS leave path. The auditor checks that no container
// is ever allocated on a draining or removed node and that per-tenant cost
// accounting stays conserved through the churn.
type ElasticSpec struct {
	DrainDeadlineSec float64        `json:"drainDeadlineSec"`
	SpotNoticeSec    float64        `json:"spotNoticeSec"`
	Events           []ElasticEvent `json:"events"`
}

// genElastic attaches a membership plan to roughly a quarter of all
// scenarios. It draws from the rng strictly after genChaos and genService,
// so seeds generated before the elastic family existed keep their exact task
// list, chaos plan, and service tier. Recoverability by construction:
// node-00 (the AM host) never leaves, and at most one capacity-destroying
// event is planned — and only when the chaos plan does not already kill a
// node — so replication-2 HDFS never loses both copies of a block.
func (s *Scenario) genElastic(r *rand.Rand) {
	if r.Intn(4) != 0 {
		return
	}
	es := &ElasticSpec{
		DrainDeadlineSec: float64(60 + r.Intn(121)),
		SpotNoticeSec:    float64(30 + r.Intn(91)),
	}
	njoin := 1 + r.Intn(2)
	for k := 0; k < njoin; k++ {
		ev := ElasticEvent{
			AtSec: float64(10 + r.Intn(151)),
			Kind:  "join",
			Node:  fmt.Sprintf("node-%02d", s.Nodes+k),
		}
		if r.Intn(2) == 0 {
			ev.Kind = "join-spot"
		}
		es.Events = append(es.Events, ev)
	}
	spotJoin := -1
	for i, ev := range es.Events {
		if ev.Kind == "join-spot" {
			spotJoin = i
			break
		}
	}
	if !s.KillsNode() && r.Intn(2) == 0 {
		switch {
		case spotJoin >= 0:
			// Reclaim the joined spot node after it has been live a while.
			es.Events = append(es.Events, ElasticEvent{
				AtSec: es.Events[spotJoin].AtSec + float64(20+r.Intn(121)),
				Kind:  "spot",
				Node:  es.Events[spotJoin].Node,
			})
		case s.Nodes >= 4:
			// Gracefully drain one original non-AM node.
			es.Events = append(es.Events, ElasticEvent{
				AtSec: float64(40 + r.Intn(151)),
				Kind:  "drain",
				Node:  fmt.Sprintf("node-%02d", 1+r.Intn(s.Nodes-1)),
			})
		}
	}
	s.Elastic = es
}

// arm schedules the plan's events against a freshly built run. Spot events
// use the same two-phase notice→reclaim flow the chaos spot mode drives.
func (e *ElasticSpec) arm(eng *sim.Engine, m *autoscale.Manager) {
	for _, ev := range e.Events {
		ev := ev
		switch ev.Kind {
		case "join":
			eng.At(ev.AtSec, func() { m.Join(ev.Node, false) })
		case "join-spot":
			eng.At(ev.AtSec, func() { m.Join(ev.Node, true) })
		case "drain":
			eng.At(ev.AtSec, func() { m.Drain(ev.Node) })
		case "spot":
			eng.At(ev.AtSec, func() { m.NoticeNode(ev.Node) })
			eng.At(ev.AtSec+e.SpotNoticeSec, func() { m.ReclaimNode(ev.Node) })
		}
	}
}

// costViolations audits cost conservation on a quiesced RM: summed
// per-tenant core-seconds must equal the cluster's busy-core integral,
// separately for on-demand and spot capacity. The tolerance is relative —
// the two sides accumulate the same products in different orders.
func costViolations(rep yarn.CostReport, now float64) []Violation {
	var tenantOD, tenantSpot float64
	for _, tc := range rep.Tenants {
		tenantOD += tc.OnDemandCoreSec
		tenantSpot += tc.SpotCoreSec
	}
	var out []Violation
	for _, c := range []struct {
		class         string
		tenants, busy float64
	}{{"on-demand", tenantOD, rep.OnDemandBusySec}, {"spot", tenantSpot, rep.SpotBusySec}} {
		tol := 1e-6 * (1 + c.busy)
		if d := c.tenants - c.busy; d > tol || d < -tol {
			out = append(out, Violation{TimeSec: now, Invariant: InvCost,
				Detail: fmt.Sprintf("%s: tenants account %.6f core-sec, cluster busy integral is %.6f", c.class, c.tenants, c.busy)})
		}
	}
	return out
}
