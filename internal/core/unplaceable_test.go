package core_test

import (
	"fmt"
	"testing"

	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/provenance"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/verify"
	"hiway/internal/wf"
	"hiway/internal/yarn"
)

// TestStrictRequestReplannedWhenPinnedNodeDies drives the AM's strict-request
// re-plan path: a static plan pins each task to a node, and a node some
// unfinished task is pinned to dies before that task's request is
// allocated. The AM must move the task to a survivor and request again
// there — without a failed attempt, since the task never ran — and the
// audited run must end clean. In the first case the task waits in YARN
// behind a busy node when the node dies; in the second it is the second
// task of a chain, so its request is made only after the node died.
func TestStrictRequestReplannedWhenPinnedNodeDies(t *testing.T) {
	for _, policy := range []string{scheduler.PolicyRoundRobin, scheduler.PolicyHEFT} {
		t.Run(policy, func(t *testing.T) {
			tasks := unplaceableTasks(4)
			var pinned []*wf.Task
			rep := runKillingPin(t, policy, tasks, nil, func(sched scheduler.Scheduler) string {
				for _, task := range tasks {
					if node, _ := sched.Placement(task); node == "node-01" {
						pinned = append(pinned, task)
					}
				}
				return "node-01"
			})
			if len(pinned) != 2 {
				t.Fatalf("%d tasks pinned to node-01 at the kill, want one running and one pending", len(pinned))
			}
			replanned := 0
			for _, task := range pinned {
				if res := resultOf(t, rep, task); res.Node == "node-01" {
					t.Fatalf("%s pinned to node-01 completed there", task)
				} else if res.Attempt == 0 {
					replanned++ // re-planned while pending: it never failed
				}
			}
			if replanned != 1 {
				t.Fatalf("%d pinned tasks completed on their first attempt, want exactly the pending one", replanned)
			}
		})
		t.Run(policy+" dies before ready", func(t *testing.T) {
			tasks := unplaceableTasks(2)
			var victim string
			rep := runKillingPin(t, policy, tasks, []wf.Edge{{Parent: 1, Child: 2}}, func(sched scheduler.Scheduler) string {
				first, _ := sched.Placement(tasks[0])
				victim, _ = sched.Placement(tasks[1])
				if victim == first {
					t.Fatalf("the plan pins both tasks to %s, want the second elsewhere", victim)
				}
				return victim
			})
			if res := resultOf(t, rep, tasks[1]); res.Node == victim || res.Attempt != 0 {
				t.Fatalf("second task ran on %s as attempt %d, want a survivor of %s at its first attempt", res.Node, res.Attempt, victim)
			}
		})
	}
}

// unplaceableTasks returns n 60-CPU-second tasks, each writing its own file.
func unplaceableTasks(n int) []*wf.Task {
	var tasks []*wf.Task
	for i := 0; i < n; i++ {
		task := &wf.Task{ID: int64(i + 1), Name: "work", OutputParams: []string{"out"},
			Declared: map[string][]wf.FileInfo{"out": {{Path: fmt.Sprintf("/out/%d", i), SizeMB: 1}}}, Threads: 1}
		task.CPUSeconds = 60
		tasks = append(tasks, task)
	}
	return tasks
}

// runKillingPin runs tasks under policy on three nodes and, at 10 s, kills
// the node victim names from the scheduler's plan. node-00 hosts the AM and
// has no room for a 2-core worker, so the plan uses node-01 and node-02,
// one container at a time each. The run must succeed with a clean audit.
func runKillingPin(t *testing.T, policy string, tasks []*wf.Task, edges []wf.Edge, victim func(scheduler.Scheduler) string) *core.Report {
	t.Helper()
	eng, env, err := (&recipes.Recipe{
		Name:       "unplaceable",
		Groups:     []recipes.NodeGroup{{Count: 3, Spec: cluster.M3Large()}},
		SwitchMBps: 2000,
		HDFS:       hdfs.Config{Replication: 2},
		YARN:       yarn.Config{AMResource: yarn.Resource{VCores: 1, MemMB: 1024}},
		Seed:       1,
	}).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	prov, err := provenance.NewManager(provenance.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	env.Prov = prov
	aud := verify.NewAuditor(env)
	env.RM.SetAudit(aud)
	sched, err := scheduler.New(policy, scheduler.Deps{Locality: env.FS, Estimator: prov})
	if err != nil {
		t.Fatal(err)
	}
	driver := &wf.StaticBase{WFName: "unplaceable-" + policy}
	driver.Build = func() ([]*wf.Task, []string, []wf.Edge, error) { return tasks, nil, edges, nil }
	eng.At(10, func() {
		node := victim(sched)
		env.RM.KillNode(node)
		env.FS.KillNode(node)
	})
	rep, err := core.Run(env, driver, sched, core.Config{
		ContainerVCores: 2, ContainerMemMB: 2048, AMNode: "node-00", Audit: aud,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs := aud.FinalCheck(rep.Succeeded); len(vs) != 0 {
		t.Fatalf("auditor violations: %v", vs)
	}
	return rep
}

// resultOf returns the task's accepted result in rep.
func resultOf(t *testing.T, rep *core.Report, task *wf.Task) *wf.TaskResult {
	t.Helper()
	for _, res := range rep.Results {
		if res.Task == task {
			return res
		}
	}
	t.Fatalf("%s did not complete", task)
	return nil
}
