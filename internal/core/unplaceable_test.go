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
// re-plan path: a static plan pins each task to a node, a second task pinned
// to a busy node waits in YARN as a strict request, and that node dies before
// the request is allocated. The AM must move the task to a survivor and
// request again there — without a failed attempt, since the task never ran —
// and the audited run must end clean.
func TestStrictRequestReplannedWhenPinnedNodeDies(t *testing.T) {
	for _, policy := range []string{scheduler.PolicyRoundRobin, scheduler.PolicyHEFT} {
		t.Run(policy, func(t *testing.T) {
			// node-00 hosts the AM and has no room for a 2-core worker, so
			// the plan uses node-01 and node-02, one container at a time each.
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
			var tasks []*wf.Task
			for i := 0; i < 4; i++ {
				task := &wf.Task{ID: int64(i + 1), Name: "work", OutputParams: []string{"out"},
					Declared: map[string][]wf.FileInfo{"out": {{Path: fmt.Sprintf("/out/%d", i), SizeMB: 1}}}, Threads: 1}
				task.CPUSeconds = 60
				tasks = append(tasks, task)
			}
			driver := &wf.StaticBase{WFName: "unplaceable-" + policy}
			driver.Build = func() ([]*wf.Task, []string, []wf.Edge, error) { return tasks, nil, nil, nil }

			const victim = "node-01"
			var pinned []*wf.Task
			eng.At(10, func() {
				for _, task := range tasks {
					if node, strict := sched.Placement(task); strict && node == victim {
						pinned = append(pinned, task)
					}
				}
				env.RM.KillNode(victim)
				env.FS.KillNode(victim)
			})
			rep, err := core.Run(env, driver, sched, core.Config{
				ContainerVCores: 2, ContainerMemMB: 2048, AMNode: "node-00", Audit: aud,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(pinned) != 2 {
				t.Fatalf("%d tasks pinned to %s at the kill, want one running and one pending", len(pinned), victim)
			}
			ranOn := map[*wf.Task]*wf.TaskResult{}
			for _, res := range rep.Results {
				ranOn[res.Task] = res
			}
			replanned := 0
			for _, task := range pinned {
				res := ranOn[task]
				if res == nil || res.Node == victim {
					t.Fatalf("task %s pinned to %s did not complete on a survivor: %+v", task, victim, res)
				}
				if res.Attempt == 0 {
					replanned++ // re-planned while pending: it never failed
				}
			}
			if replanned != 1 {
				t.Fatalf("%d pinned tasks completed on their first attempt, want exactly the pending one", replanned)
			}
			if vs := aud.FinalCheck(rep.Succeeded); len(vs) != 0 {
				t.Fatalf("auditor violations: %v", vs)
			}
		})
	}
}
