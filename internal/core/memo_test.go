package core

import (
	"fmt"
	"maps"
	"slices"
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

// The produced-identity map is made once, at the size the graph declares: a
// cold run whose tasks succeed as declared registers exactly the declared
// outputs. Without the memo, or for an opted-out tenant, there is no map.
func TestMemoIdentitiesSizedFromTheGraph(t *testing.T) {
	tab := memo.New(0)
	tab.SetOptOut("paranoid")
	for _, c := range []struct {
		name string
		cfg  Config
		want bool
	}{
		{"memo", Config{Memo: tab}, true},
		{"no memo", Config{}, false},
		{"opted out", Config{Memo: tab, Tenant: "paranoid"}, false},
	} {
		env := newEnv(t, 3, spec(), 1000)
		env.FS.Put("/in/seed", 20, "")
		am, err := Launch(env.Env, chainDriver(t, 3), scheduler.NewFCFS(), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		env.Cluster.Engine.Run()
		if rep, err := am.Report(); err != nil || !rep.Succeeded {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := am.memoIDs != nil; got != c.want {
			t.Fatalf("%s: a map of produced identities: %v, want %v", c.name, got, c.want)
		}
		if c.want && (am.declaredOutputs() != 5 || len(am.memoIDs) != 5) {
			t.Fatalf("%s: %d outputs declared, %d identities registered; want 5 and 5", c.name, am.declaredOutputs(), len(am.memoIDs))
		}
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

// twoInputChain returns a static driver of depth steps, each reading both
// outputs of the step before (the first reads two staged seeds): the shape
// in which a key that carried its producers' keys doubled at every step.
func twoInputChain(depth int) wf.StaticDriver {
	var ids wf.IDSeq
	var tasks []*wf.Task
	prev := []string{"/in/seed0", "/in/seed1"}
	for d := 0; d < depth; d++ {
		outs := []wf.FileInfo{{Path: fmt.Sprintf("/chain/d%02d.a", d), SizeMB: 4}, {Path: fmt.Sprintf("/chain/d%02d.b", d), SizeMB: 4}}
		st := newTask(&ids, "step", prev, outs)
		st.CPUSeconds = 3
		tasks = append(tasks, st)
		prev = []string{outs[0].Path, outs[1].Path}
	}
	sb := &wf.StaticBase{WFName: "two-input-chain"}
	sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
		return tasks, []string{"/in/seed0", "/in/seed1"}, nil, nil
	}
	return sb
}

// TestKeySizeIndependentOfDepth pins that a memo key names its producers by
// digest: down a two-input chain 24 steps deep, cold and then warm, every
// key stays within a bound linear in the task's own inputs and outputs.
// A key that embedded its producers' keys passed 100 KB by step 8; the
// check runs after every engine step, so such a key fails here while small.
func TestKeySizeIndependentOfDepth(t *testing.T) {
	const depth = 24
	// Per input: an escaped "p:" identity (2 + 2 + 32 hex + "#out#i") plus
	// a comma; per output: its escaped path, a colon and a size; plus the
	// version, signature and profile.
	bound := func(task *wf.Task) int {
		n := 64 + 3*len(task.Name)
		for range task.Inputs {
			n += 64
		}
		for _, fi := range task.DeclaredOutputs() {
			n += 3*len(fi.Path) + 32
		}
		return n
	}
	tab := memo.New(0)
	var cold []string
	for run, id := range []string{"cold", "warm"} {
		env := newEnv(t, 3, spec(), 1000)
		env.FS.Put("/in/seed0", 8, "")
		env.FS.Put("/in/seed1", 8, "")
		am, err := Launch(env.Env, twoInputChain(depth), scheduler.NewFCFS(), Config{WorkflowID: id, Memo: tab})
		if err != nil {
			t.Fatal(err)
		}
		for env.eng.Step() {
			for _, ts := range am.tasks {
				if ts != nil && len(ts.memoKey) > bound(ts.t) {
					t.Fatalf("%s run, step %d: key of %d B, over the bound of %d B", id, ts.t.ID-1, len(ts.memoKey), bound(ts.t))
				}
			}
		}
		rep, err := am.Report()
		if err != nil || !rep.Succeeded {
			t.Fatalf("%s run: %v", id, err)
		}
		var keys []string
		for _, ts := range am.tasks {
			keys = append(keys, ts.memoKey)
		}
		if run == 0 {
			cold = keys
		} else if rep.Memoized != depth || !slices.Equal(keys, cold) {
			t.Fatalf("warm run memoized %d of %d steps; keys equal to the cold run's: %v", rep.Memoized, depth, slices.Equal(keys, cold))
		}
	}
}
