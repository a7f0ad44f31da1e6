package autoscale

import (
	"fmt"
	"testing"

	"hiway/internal/chaos"
	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/provenance"
	"hiway/internal/scheduler"
	"hiway/internal/sim"
	"hiway/internal/wf"
	"hiway/internal/yarn"
)

func testSpec() cluster.NodeSpec {
	return cluster.NodeSpec{VCores: 4, MemMB: 8192, CPUFactor: 1, DiskMBps: 200, NetMBps: 200}
}

type env struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	rm  *yarn.ResourceManager
	fs  *hdfs.FS
	ce  core.Env
}

func newEnv(t *testing.T, nodes int) *env {
	t.Helper()
	eng := sim.NewEngine()
	cl, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 1000, ExternalPerFlowMBps: 50}, nodes, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	fs := hdfs.New(cl, hdfs.Config{BlockSizeMB: 64, Replication: 2}, 42)
	rm := yarn.NewResourceManager(eng, cl, yarn.Config{})
	prov, err := provenance.NewManager(provenance.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	return &env{eng: eng, cl: cl, rm: rm, fs: fs,
		ce: core.Env{Cluster: cl, FS: fs, RM: rm, Prov: prov}}
}

func (e *env) manager(t *testing.T, cfg ManagerConfig) *Manager {
	t.Helper()
	if cfg.Spec.VCores == 0 {
		cfg.Spec = testSpec()
	}
	return NewManager(e.cl, e.rm, e.fs, cfg)
}

// newTask builds a one-output task numbered by the run's ID sequence.
func newTask(ids *wf.IDSeq, name string, inputs []string, outputs []wf.FileInfo) *wf.Task {
	return &wf.Task{ID: ids.Next(), Name: name, Inputs: inputs,
		OutputParams: []string{"out"}, Declared: map[string][]wf.FileInfo{"out": outputs}, Threads: 1}
}

// chainDriver builds prep → work ×n → merge.
func chainDriver(n int) wf.StaticDriver {
	var ids wf.IDSeq
	prep := newTask(&ids, "prep", []string{"/in/seed"}, []wf.FileInfo{{Path: "/tmp/split", SizeMB: 10}})
	prep.CPUSeconds = 5
	tasks := []*wf.Task{prep}
	var mergeIn []string
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("/tmp/part%d", i)
		w := newTask(&ids, "work", []string{"/tmp/split"}, []wf.FileInfo{{Path: out, SizeMB: 5}})
		w.CPUSeconds = 30
		tasks = append(tasks, w)
		mergeIn = append(mergeIn, out)
	}
	merge := newTask(&ids, "merge", mergeIn, []wf.FileInfo{{Path: "/tmp/result", SizeMB: 1}})
	merge.CPUSeconds = 2
	tasks = append(tasks, merge)
	sb := &wf.StaticBase{WFName: "chain"}
	sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
		return tasks, []string{"/in/seed"}, nil, nil
	}
	return sb
}

// membershipLog is a yarn.AuditHook — the RM's one observer, the mechanism
// hiway verify's auditor uses — that records every
// join, drain and leave as "<time>:<node>:<event>".
type membershipLog struct{ events []string }

func (l *membershipLog) note(now float64, node, event string) {
	l.events = append(l.events, fmt.Sprintf("%g:%s:%s", now, node, event))
}

func (l *membershipLog) OnNodeJoined(now float64, node string, vcores, memMB int) {
	l.note(now, node, "join")
}
func (l *membershipLog) OnNodeDraining(now float64, node string) { l.note(now, node, "drain") }
func (l *membershipLog) OnNodeRemoved(now float64, node string)  { l.note(now, node, "leave") }

func (l *membershipLog) OnContainerAllocated(float64, *yarn.Container)      {}
func (l *membershipLog) OnContainerReleased(float64, *yarn.Container, bool) {}
func (l *membershipLog) OnContainerLost(float64, *yarn.Container)           {}
func (l *membershipLog) OnNodeDead(float64, string)                         {}

func TestManagerJoinDrainLeaveAcrossLayers(t *testing.T) {
	e := newEnv(t, 2)
	var log membershipLog
	e.rm.SetAudit(&log)
	m := e.manager(t, ManagerConfig{})
	id, err := m.Join("", true)
	if err != nil {
		t.Fatal(err)
	}
	if id != "node-02" {
		t.Fatalf("joined id = %s, want node-02", id)
	}
	if e.cl.Node(id) == nil || e.rm.NodeRunning(id) != 0 {
		t.Fatal("join did not register across layers")
	}
	if err := m.Drain(id); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	if e.cl.Node(id) != nil {
		t.Fatal("drained node still in cluster")
	}
	if got := m.Size(); got != 2 {
		t.Fatalf("size after leave = %d, want 2", got)
	}
	if m.Joins != 1 || m.Leaves != 1 {
		t.Fatalf("joins/leaves = %d/%d, want 1/1", m.Joins, m.Leaves)
	}
	// The departed id can rejoin as a fresh machine.
	if _, err := m.Join(id, false); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	// The RM told its audit hook of every transition, in order.
	want := "[0:node-02:join 0:node-02:drain 0:node-02:leave 0.25:node-02:join]"
	if got := fmt.Sprint(log.events); got != want {
		t.Fatalf("membership transitions = %s, want %s", got, want)
	}
}

func TestControllerScalesUpAndDownWithHysteresis(t *testing.T) {
	e := newEnv(t, 2)
	m := e.manager(t, ManagerConfig{})
	backlog := 6
	ctl := NewController(e.eng, m, &Reactive{}, func() Signals {
		return Signals{QueueDepth: backlog}
	}, ControllerConfig{MinNodes: 2, MaxNodes: 8, HorizonSec: 600})
	ctl.Start()
	e.eng.RunUntil(100)
	if got := m.Size(); got != 6 {
		t.Fatalf("size under backlog 6 = %d, want 6", got)
	}
	if ctl.ScaleUps == 0 {
		t.Fatal("no scale-up recorded")
	}
	backlog = 1
	e.eng.Run()
	if got := m.Size(); got != 2 {
		t.Fatalf("size after lull = %d, want MinNodes 2", got)
	}
	if ctl.ScaleDowns == 0 {
		t.Fatal("no scale-down recorded")
	}
	if ctl.Flaps != 1 {
		t.Fatalf("flaps = %d, want 1 (one direction reversal)", ctl.Flaps)
	}
}

func TestControllerCooldownDampsOscillation(t *testing.T) {
	e := newEnv(t, 2)
	m := e.manager(t, ManagerConfig{})
	flip, evals := false, 0
	ctl := NewController(e.eng, m, &Reactive{}, func() Signals {
		evals++
		flip = !flip
		if flip {
			return Signals{QueueDepth: 8}
		}
		return Signals{QueueDepth: 1}
	}, ControllerConfig{MinNodes: 2, MaxNodes: 8, HorizonSec: 1800})
	ctl.Start()
	e.eng.Run()
	actions := ctl.ScaleUps + ctl.ScaleDowns
	// A per-tick follower would act on nearly every evaluation; hysteresis
	// demands two consecutive agreeing evaluations, which a strict
	// alternation never produces.
	if actions != 0 {
		t.Fatalf("oscillating signal caused %d scale actions, want 0", actions)
	}
	if evals < 60 {
		t.Fatalf("evals = %d, want the full horizon's worth", evals)
	}
}

// scripted is a Policy that wants want[i] nodes at its i-th evaluation.
type scripted struct {
	want []int
	i    int
}

func (p *scripted) Desired(now float64, s Signals, current int) int {
	p.i++
	return p.want[p.i-1]
}

// TestControllerTuning pins the control loop's constants: evaluations every
// 30 s, a scale-up after 2 agreeing evaluations, a scale-down after 4, and
// no action within 90 s of the last one. Each case scripts the desired size
// per evaluation on a two-node cluster and lists the membership transitions
// the controller caused, as "<time>:<node>:<event>".
func TestControllerTuning(t *testing.T) {
	cases := []struct {
		name string
		want []int
		log  string
	}{
		{"up after two agreeing evaluations", []int{3, 3},
			"[60:node-02:join]"},
		{"a level evaluation resets the up streak", []int{3, 2, 3, 3},
			"[120:node-02:join]"},
		{"no second action within 90 s", []int{3, 3, 4, 4, 4},
			"[60:node-02:join 150:node-03:join]"},
		{"down after four agreeing evaluations", []int{1, 1, 1, 1},
			"[120:node-01:drain 120:node-01:leave]"},
		{"three agreeing evaluations do not scale down", []int{1, 1, 1, 2, 1, 1, 1},
			"[]"},
		{"down after up waits out four evaluations", []int{3, 3, 2, 2, 2, 2},
			"[60:node-02:join 180:node-02:drain 180:node-02:leave]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, 2)
			var log membershipLog
			e.rm.SetAudit(&log)
			m := e.manager(t, ManagerConfig{Protected: []string{"node-00"}})
			evals := 0
			ctl := NewController(e.eng, m, &scripted{want: tc.want}, func() Signals { evals++; return Signals{} },
				ControllerConfig{HorizonSec: float64(30 * len(tc.want))})
			ctl.Start()
			e.eng.Run()
			if got := fmt.Sprint(log.events); got != tc.log {
				t.Fatalf("transitions = %s, want %s", got, tc.log)
			}
			if evals != len(tc.want) {
				t.Fatalf("evals = %d, want one per 30 s of horizon (%d)", evals, len(tc.want))
			}
		})
	}
}

func TestPredictiveLeadsBuildingBurst(t *testing.T) {
	p := &Predictive{}
	r := &Reactive{}
	var pd, rd int
	for i, backlog := range []int{0, 2, 4, 6, 8} {
		s := Signals{QueueDepth: backlog}
		pd = p.Desired(float64(i*30), s, 4)
		rd = r.Desired(float64(i*30), s, 4)
	}
	if pd <= rd {
		t.Fatalf("predictive desired %d not ahead of reactive %d on a building ramp", pd, rd)
	}
}

func TestSpotChaosIsDeterministic(t *testing.T) {
	run := func() (notices, leaves int, order []string) {
		e := newEnv(t, 2)
		m := e.manager(t, ManagerConfig{Protected: []string{"node-00"}, SpotNoticeSec: 30})
		m.AddNodes(4)
		var log membershipLog
		e.rm.SetAudit(&log)
		plan := chaos.NewPlan(7)
		plan.SpotRate, plan.SpotNoticeSec, plan.SpotEverySec = 0.5, 30, 20
		plan.ArmSpot(e.eng, m, 200)
		e.eng.Run()
		return m.Notices, m.Leaves, log.events
	}
	n1, l1, ev1 := run()
	n2, l2, ev2 := run()
	if n1 == 0 || l1 == 0 {
		t.Fatalf("expected some spot churn, got notices=%d leaves=%d", n1, l1)
	}
	if n1 != n2 || l1 != l2 || fmt.Sprint(ev1) != fmt.Sprint(ev2) {
		t.Fatalf("same seed diverged: %v vs %v", ev1, ev2)
	}
}

// TestMembershipEdgeCases drives the satellite scenarios end to end on the
// full core stack: workflows must survive every planned-membership hazard
// without leaking containers.
func TestMembershipEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"drain-deadline-expiry", func(t *testing.T) {
			// A busy node is drained with a short deadline: the drain ends
			// ungracefully, the preempted task retries elsewhere, and the
			// node leaves every layer.
			e := newEnv(t, 3)
			m := e.manager(t, ManagerConfig{DrainDeadlineSec: 10, Protected: []string{"node-00"}})
			e.fs.Put("/in/seed", 20, "")
			am, err := core.Launch(e.ce, chainDriver(4), scheduler.NewFCFS(), core.Config{AMNode: "node-00", MaxRetries: 5})
			if err != nil {
				t.Fatal(err)
			}
			e.eng.RunUntil(12) // mid work phase
			if err := m.Drain("node-02"); err != nil {
				t.Fatal(err)
			}
			e.eng.Run()
			rep, err := am.Report()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Succeeded {
				t.Fatal("workflow failed after drain-deadline preemption")
			}
			if e.cl.Node("node-02") != nil {
				t.Fatal("node-02 still in cluster after drain deadline")
			}
			if e.rm.RunningContainers() != 0 {
				t.Fatalf("leaked containers: %d", e.rm.RunningContainers())
			}
		}},
		{"spot-reclaim-of-am-node", func(t *testing.T) {
			// The node hosting the AM is spot-reclaimed. The AM dies with
			// it; recovery is a fresh incarnation via core.Resume on the
			// surviving substrate (plus the node rejoining as a new
			// machine), re-executing zero completed work.
			e := newEnv(t, 4)
			m := e.manager(t, ManagerConfig{})
			e.fs.Put("/in/seed", 20, "")
			cfg := core.Config{WorkflowID: "wf-elastic-am", AMNode: "node-00", MaxRetries: 5}
			am, err := core.Launch(e.ce, chainDriver(4), scheduler.NewFCFS(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.eng.RunUntil(12)
			completedAtKill := am.CompletedTasks()
			m.ReclaimNode("node-00")
			am.Kill()
			if _, err := m.Join("node-00", false); err != nil {
				t.Fatal(err)
			}
			am2, err := core.Resume(e.ce, chainDriver(4), scheduler.NewFCFS(), cfg, e.ce.Prov.Store())
			if err != nil {
				t.Fatal(err)
			}
			e.eng.Run()
			rep, err := am2.Report()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Succeeded {
				t.Fatal("workflow failed after AM-node reclaim + resume")
			}
			if completedAtKill > 0 && rep.Recovered < completedAtKill {
				t.Fatalf("recovered %d < completed-at-kill %d: lost completions", rep.Recovered, completedAtKill)
			}
			if e.rm.RunningContainers() != 0 {
				t.Fatalf("leaked containers: %d", e.rm.RunningContainers())
			}
		}},
		{"rejoin-same-id-after-blacklist", func(t *testing.T) {
			// A node is blacklisted, leaves, and rejoins under the same ID:
			// the new incarnation must start with a clean health record.
			e := newEnv(t, 3)
			health := scheduler.NewNodeHealthTracker(e.eng.Now)
			m := e.manager(t, ManagerConfig{Health: health, Protected: []string{"node-00"}})
			for i := 0; i < 3; i++ {
				health.ReportFailure("node-02")
			}
			if health.Healthy("node-02") {
				t.Fatal("node-02 should be blacklisted")
			}
			if err := m.Drain("node-02"); err != nil {
				t.Fatal(err)
			}
			e.eng.Run()
			if e.eng.Now() >= 60 {
				t.Fatalf("drain ended at %gs, after the 60 s penalty: expiry, not the leave, would clear it", e.eng.Now())
			}
			if !health.Healthy("node-02") {
				t.Fatal("node-02 still blacklisted after it left")
			}
			if _, err := m.Join("node-02", false); err != nil {
				t.Fatal(err)
			}
			if !health.Healthy("node-02") {
				t.Fatal("rejoined node inherited the old incarnation's blacklist")
			}
		}},
		{"drain-last-non-blacklisted-node", func(t *testing.T) {
			// Every worker except one is blacklisted; draining that last
			// healthy worker must not strand the workflow — the drain
			// deadline preempts, and retries fall back to the blacklisted
			// node once its penalty lapses (backoff re-admission).
			e := newEnv(t, 3)
			health := scheduler.NewNodeHealthTracker(e.eng.Now)
			m := e.manager(t, ManagerConfig{DrainDeadlineSec: 10, Protected: []string{"node-00"}, Health: health})
			for i := 0; i < 3; i++ {
				health.ReportFailure("node-01")
			}
			e.fs.Put("/in/seed", 20, "")
			am, err := core.Launch(e.ce, chainDriver(3), scheduler.NewFCFS(),
				core.Config{AMNode: "node-00", MaxRetries: 5, Health: health})
			if err != nil {
				t.Fatal(err)
			}
			e.eng.RunUntil(12)
			if err := m.Drain("node-02"); err != nil {
				t.Fatal(err)
			}
			e.eng.Run()
			rep, err := am.Report()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Succeeded {
				t.Fatal("workflow failed after draining the last non-blacklisted worker")
			}
			if e.rm.RunningContainers() != 0 {
				t.Fatalf("leaked containers: %d", e.rm.RunningContainers())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
