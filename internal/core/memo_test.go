package core

import (
	"maps"
	"testing"

	"hiway/internal/memo"
	"hiway/internal/provenance"
	"hiway/internal/scheduler"
	"hiway/internal/wf"
)

// TestMemoWarmTableSplicesWholeWorkflow is the core hit/miss differential:
// a cold run over a shared table executes everything and commits entries; a
// second run of the same pipeline on a fresh substrate splices every task
// from the table — zero containers, zero attempts, identical outputs — and
// its provenance attributes each hit to the first run.
func TestMemoWarmTableSplicesWholeWorkflow(t *testing.T) {
	tab := memo.New(0)

	envA := newEnv(t, 3, spec(), 1000)
	envA.FS.Put("/in/seed", 20, "")
	repA, err := Run(envA.Env, chainDriver(t, 4), scheduler.NewFCFS(), Config{WorkflowID: "run-a", Memo: tab})
	if err != nil {
		t.Fatal(err)
	}
	if repA.Memoized != 0 {
		t.Fatalf("cold run memoized %d tasks", repA.Memoized)
	}
	if st := tab.Stats(); st.Commits != 6 || st.Hits != 0 {
		t.Fatalf("cold-run table stats: %+v", st)
	}

	envB := newEnv(t, 3, spec(), 1000)
	envB.FS.Put("/in/seed", 20, "")
	repB, err := Run(envB.Env, chainDriver(t, 4), scheduler.NewFCFS(), Config{WorkflowID: "run-b", Memo: tab})
	if err != nil {
		t.Fatal(err)
	}
	if repB.Memoized != 6 || len(repB.Results) != 6 {
		t.Fatalf("warm run: memoized=%d results=%d", repB.Memoized, len(repB.Results))
	}
	if repB.Containers != 0 {
		t.Fatalf("warm run allocated %d worker containers", repB.Containers)
	}
	for _, res := range repB.Results {
		if res.Node != "" || res.End != res.Start {
			t.Fatalf("spliced result executed: %+v", res)
		}
	}
	if len(repB.Outputs) != len(repA.Outputs) {
		t.Fatalf("outputs diverged: %v vs %v", repB.Outputs, repA.Outputs)
	}
	if !envB.FS.Readable("/tmp/result") {
		t.Fatal("spliced final output not materialized in HDFS")
	}
	// Every hit is attributed to the cold run in provenance.
	ix, err := provenance.IndexStore(envB.Prov.Store())
	if err != nil {
		t.Fatal(err)
	}
	hits := ix.MemoHits("run-b")
	if len(hits) != 6 {
		t.Fatalf("memo-hit events: %d", len(hits))
	}
	for _, h := range hits {
		if h.MemoSource != "run-a" {
			t.Fatalf("attribution: %+v", h)
		}
	}
	if st := tab.Stats(); st.Hits != 6 {
		t.Fatalf("warm-run table stats: %+v", st)
	}
}

// TestMemoTenantOptOut pins the per-tenant escape hatch: an opted-out
// tenant neither reads nor writes the shared table, even when warm.
func TestMemoTenantOptOut(t *testing.T) {
	tab := memo.New(0)

	envA := newEnv(t, 3, spec(), 1000)
	envA.FS.Put("/in/seed", 20, "")
	if _, err := Run(envA.Env, chainDriver(t, 2), scheduler.NewFCFS(), Config{WorkflowID: "run-a", Memo: tab}); err != nil {
		t.Fatal(err)
	}

	tab.SetOptOut("paranoid")
	envB := newEnv(t, 3, spec(), 1000)
	envB.FS.Put("/in/seed", 20, "")
	rep, err := Run(envB.Env, chainDriver(t, 2), scheduler.NewFCFS(),
		Config{WorkflowID: "run-b", Tenant: "paranoid", Memo: tab})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Memoized != 0 || rep.Containers == 0 {
		t.Fatalf("opted-out tenant got memoized work: %+v", rep)
	}
	if st := tab.Stats(); st.Commits != 4 || st.Lookups != 4 {
		// 4 commits and 4 lookups from run A only (prep, 2×work, merge).
		t.Fatalf("opted-out tenant touched the table: %+v", st)
	}
}

// TestMemoSkipsDynamicOutcomes pins the commit precondition: a task whose
// produced outputs differ from its declaration must never be memoized,
// since a splice replays the declaration.
func TestMemoSkipsDynamicOutcomes(t *testing.T) {
	tab := memo.New(0)
	dynamic := func(task *wf.Task) wf.Outcome {
		out := wf.DefaultOutcome(task)
		if task.Name == "work" {
			// An aggregate output growing an extra file at run time.
			out.Outputs = maps.Clone(out.Outputs)
			out.Outputs["out"] = append(out.Outputs["out"], wf.FileInfo{Path: out.Outputs["out"][0].Path + ".extra", SizeMB: 1})
		}
		return out
	}

	for i, id := range []string{"run-a", "run-b"} {
		env := newEnv(t, 3, spec(), 1000)
		env.FS.Put("/in/seed", 20, "")
		rep, err := Run(env.Env, chainDriver(t, 2), scheduler.NewFCFS(),
			Config{WorkflowID: id, Memo: tab, Behavior: dynamic})
		if err != nil {
			t.Fatal(err)
		}
		// prep and merge match their declarations and memoize; the dynamic
		// work tasks must re-execute in the second run (their producer
		// identities are deterministic, so merge still hits downstream).
		wantMemoized := 0
		if i == 1 {
			wantMemoized = 2 // prep and merge
		}
		if rep.Memoized != wantMemoized {
			t.Fatalf("run %s memoized %d, want %d", id, rep.Memoized, wantMemoized)
		}
		for _, res := range rep.Results {
			if res.Task.Name == "work" && res.Node == "" {
				t.Fatalf("run %s spliced a dynamic-outcome task", id)
			}
		}
	}
	// Only declaration-true tasks ever committed.
	if st := tab.Stats(); st.Commits < 2 || st.Commits > 4 {
		t.Fatalf("table stats: %+v", st)
	}
}

// TestMemoPrefixCanonicalizesAcrossRoots proves the cross-tenant premise:
// the same pipeline staged under two different run-private roots derives
// identical keys once the prefix is stripped, so tenant B's run hits on
// tenant A's executions.
func TestMemoPrefixCanonicalizesAcrossRoots(t *testing.T) {
	tab := memo.New(0)
	build := func(root string) (wf.StaticDriver, string) {
		var ids wf.IDSeq
		seed := root + "/in/seed"
		prep := newTask(&ids, "prep", []string{seed}, []wf.FileInfo{{Path: root + "/tmp/split", SizeMB: 10}})
		prep.CPUSeconds = 5
		work := newTask(&ids, "work", []string{root + "/tmp/split"}, []wf.FileInfo{{Path: root + "/tmp/part", SizeMB: 5}})
		work.CPUSeconds = 20
		sb := &wf.StaticBase{WFName: "rooted"}
		sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
			return []*wf.Task{prep, work}, []string{seed}, nil, nil
		}
		return sb, seed
	}

	envA := newEnv(t, 3, spec(), 1000)
	drvA, seedA := build("/svc/alice/w000")
	envA.FS.Put(seedA, 20, "")
	if _, err := Run(envA.Env, drvA, scheduler.NewFCFS(),
		Config{WorkflowID: "alice-w000", Tenant: "alice", Memo: tab, MemoPrefix: "/svc/alice/w000"}); err != nil {
		t.Fatal(err)
	}

	envB := newEnv(t, 3, spec(), 1000)
	drvB, seedB := build("/svc/bob/w007")
	envB.FS.Put(seedB, 20, "")
	rep, err := Run(envB.Env, drvB, scheduler.NewFCFS(),
		Config{WorkflowID: "bob-w007", Tenant: "bob", Memo: tab, MemoPrefix: "/svc/bob/w007"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Memoized != 2 {
		t.Fatalf("cross-root run memoized %d of 2 tasks", rep.Memoized)
	}
	if !envB.FS.Readable("/svc/bob/w007/tmp/part") {
		t.Fatal("spliced output missing under tenant B's root")
	}
}
