package core

import (
	"slices"
	"strings"

	"hiway/internal/memo"
	"hiway/internal/wf"
)

// This file integrates the cluster-wide memo table (internal/memo) into the
// AM's task lifecycle. At submit time each task derives a canonical memo
// key; a hit short-circuits execution entirely — the recorded outputs are
// spliced into HDFS and the driver sees a synthesized completion with no
// attempt, no node, and no simulated time spent. Successful executions
// whose produced outputs exactly match their declaration commit entries, so
// later runs (any tenant, unless opted out) can skip them.

// memoEnabled reports whether this AM participates in memoization at all.
func (am *AM) memoEnabled() bool {
	return am.cfg.Memo != nil && !am.cfg.Memo.OptedOut(am.cfg.Tenant)
}

// declaredOutputs counts the files a static graph's tasks declare: how many
// produced identities a run registers when every task succeeds as declared.
// It is 0 for an iterative driver, whose tasks are not known in advance.
func (am *AM) declaredOutputs() int {
	if am.dag == nil {
		return 0
	}
	n := 0
	for _, t := range am.dag.All() {
		for _, param := range t.OutputParams {
			n += len(t.Declared[param])
		}
	}
	return n
}

// memoCanon strips the run-scoped staging prefix from a path, so the same
// pipeline submitted under /svc/tenantA/w003 and /svc/tenantB/w017 derives
// identical keys.
func (am *AM) memoCanon(path string) string {
	if am.cfg.MemoPrefix != "" {
		return strings.TrimPrefix(path, am.cfg.MemoPrefix)
	}
	return path
}

// inputIdentity resolves one input path to its canonical identity: the
// producer-derived identity when a task of this run produced it, else the
// staged identity (canonical path + size) of the file in HDFS. ok is false
// when the file is unknown, which disables memoization for the consumer.
func (am *AM) inputIdentity(path string) (string, bool) {
	if id, ok := am.memoIDs[path]; ok {
		return id, true
	}
	f, ok := am.env.FS.Stat(path)
	if !ok {
		return "", false
	}
	return memo.StagedIdentity(am.memoCanon(path), f.SizeMB), true
}

// memoKey derives the canonical memo key for a task: signature, container
// profile, canonical input identities, and declared outputs. ok is false
// when any input cannot be identified; such tasks execute normally.
func (am *AM) memoKey(t *wf.Task) (string, bool) {
	res := am.containerResource()
	// The key's sets reuse the AM's scratch: Encode copies what it keeps,
	// and sorting them here spares Encode copying them to sort.
	k := memo.Key{
		Sig:     t.Name,
		Profile: memo.Profile{VCores: res.VCores, MemMB: res.MemMB},
		Inputs:  am.memoScratch.Inputs[:0],
		Outputs: am.memoScratch.Outputs[:0],
	}
	for _, in := range t.Inputs {
		id, ok := am.inputIdentity(in)
		if !ok {
			return "", false
		}
		k.Inputs = append(k.Inputs, id)
	}
	for _, param := range t.OutputParams {
		for _, fi := range t.Declared[param] {
			k.Outputs = append(k.Outputs, memo.OutputID{Path: am.memoCanon(fi.Path), SizeMB: fi.SizeMB})
		}
	}
	k.Normalize()
	am.memoScratch = k
	return k.Encode(), true
}

// tryMemoHit consults the memo table for a freshly submitted task. On a hit
// the splice is deferred through the engine (delay 0) so deep chains of
// hitting tasks unwind iteratively rather than recursing through submit;
// pendingSplices keeps checkStalled honest in the gap. The derived key is
// remembered either way for the commit after a real execution.
func (am *AM) tryMemoHit(ts *taskState) bool {
	if !am.memoEnabled() {
		return false
	}
	key, ok := am.memoKey(ts.t)
	if !ok {
		return false
	}
	ts.memoKey = key
	entry, ok := am.cfg.Memo.Lookup(key)
	if !ok {
		return false
	}
	am.pendingSplices++
	am.env.Cluster.Engine.Schedule(0, func() { am.spliceMemoHit(ts, entry) })
	return true
}

// registerProducedIdentities binds each produced file to its
// producer-derived identity, so downstream tasks key on "output #i of the
// task whose key digests to <d>" — equal across runs and tenants — rather
// than on raw paths. The key is digested once for all of the task's outputs.
func (am *AM) registerProducedIdentities(key string, t *wf.Task, outputs map[string][]wf.FileInfo) {
	p := memo.ProducerOf(key)
	for _, param := range t.OutputParams {
		for idx, fi := range outputs[param] {
			am.memoIDs[fi.Path] = memo.ProducedIdentity(p, param, idx)
		}
	}
}

// spliceMemoHit completes a task from the memo table: the declared outputs
// are registered in HDFS as externally materialized files (no simulated
// I/O — they come from the provenance store, not a worker), the task-end
// provenance event carries the memo attribution, and a result with no node
// and no duration is accepted.
func (am *AM) spliceMemoHit(ts *taskState, e memo.Entry) {
	am.pendingSplices--
	if am.finished || ts.completed {
		return
	}
	t := ts.t
	now := am.env.Cluster.Engine.Now()
	for _, param := range t.OutputParams {
		for _, fi := range t.Declared[param] {
			am.env.FS.PutExternal(fi.Path, fi.SizeMB)
		}
	}
	res := &wf.TaskResult{
		Task:    t,
		Start:   now,
		End:     now,
		Outputs: t.Declared, // read-only, as wf.DefaultOutcome's
	}
	am.memoized++
	am.tr.Arg(ts.span, "memo", "hit")
	am.provMemoHit(res, e)
	am.registerProducedIdentities(ts.memoKey, t, res.Outputs)
	am.accept(ts, res)
}

// memoCommit runs after a real execution succeeded: produced files get
// producer identities, and — when the outcome exactly matches the
// declaration, so replaying the declaration reproduces it — an entry is
// committed to the table. Dynamic outcomes (aggregate outputs that differ
// from the declaration) are never memoized.
func (am *AM) memoCommit(ts *taskState, res *wf.TaskResult) {
	key := ts.memoKey
	if !am.memoEnabled() || key == "" {
		return
	}
	t := ts.t
	am.registerProducedIdentities(key, t, res.Outputs)
	if !outcomeMatchesDeclaration(t, res.Outputs) {
		return
	}
	_ = am.cfg.Memo.Commit(key, memo.Entry{
		SourceWF:     am.cfg.WorkflowID,
		SourceTenant: am.cfg.Tenant,
		CPUSeconds:   t.CPUSeconds,
		DurationSec:  res.End - res.Start,
	})
}

// outcomeMatchesDeclaration reports whether a result produced exactly the
// declared files (per parameter, in order, path and size) — the condition
// under which a memo hit can splice the declaration in place of execution.
func outcomeMatchesDeclaration(t *wf.Task, outputs map[string][]wf.FileInfo) bool {
	for _, param := range t.OutputParams {
		if !slices.Equal(t.Declared[param], outputs[param]) {
			return false
		}
	}
	return len(outputs) <= len(t.OutputParams)
}

// provMemoHit records the task-end event for a spliced completion, marked
// with the memo attribution the provenance queries surface.
func (am *AM) provMemoHit(res *wf.TaskResult, e memo.Entry) {
	if am.env.Prov == nil {
		return
	}
	ev := am.taskEndEvent(res)
	ev.MemoHit = true
	ev.MemoSource = e.SourceWF
	_ = am.env.Prov.Record(ev)
}
