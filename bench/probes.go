package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hiway/internal/cluster"
	"hiway/internal/hdfs"
	"hiway/internal/memo"
	"hiway/internal/provdb"
	"hiway/internal/provenance"
	"hiway/internal/sim"
	"hiway/internal/yarn"
)

// Layer probes split what the seam wrappers cannot reach from outside — the
// sim, cluster, yarn and hdfs time lumped into core.loop_self_ms, and the
// memo and provdb hot paths — by exercising each layer's public operations
// alone. Every probe takes its size from a count the workload itself just
// reported (queue depth, width, node count, key and event counts), so it
// measures the layer at the size the workload uses it. Each runs for about
// probeOps operations, a few milliseconds.

const probeOps = 20000

func perOp(d time.Duration, ops int, unit time.Duration) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(ops)
}

// probeQueue holds the engine's queue at depth pending events and times one
// Schedule + Step pair (the classic hold model), with every eighth event
// scheduled and cancelled as the AM's deadline timers are.
func probeQueue(depth int) float64 {
	if depth < 1 {
		return 0
	}
	eng := sim.NewEngine()
	rng := rand.New(rand.NewSource(1))
	nop := func() {}
	for i := 0; i < depth; i++ {
		eng.Schedule(rng.Float64()*float64(depth), nop)
	}
	t0 := time.Now()
	for i := 0; i < probeOps; i++ {
		eng.Schedule(rng.Float64()*float64(depth), nop)
		if i%8 == 0 {
			eng.Cancel(eng.Schedule(rng.Float64()*float64(depth), nop))
		}
		eng.Step()
	}
	return perOp(time.Since(t0), probeOps, time.Nanosecond)
}

// probeReshare keeps flows jobs on one SharedResource, as the switch carries
// the workload's concurrent transfers, and times one Submit + Remove pair:
// two max-min recomputations over the whole flow set.
func probeReshare(flows int) float64 {
	if flows < 1 {
		return 0
	}
	eng := sim.NewEngine()
	res := sim.NewSharedResource(eng, "probe", 40*float64(flows))
	rng := rand.New(rand.NewSource(1))
	jobs := make([]*sim.Job, flows)
	for i := range jobs {
		jobs[i] = res.Submit(1e12, 20+rng.Float64()*100, nil)
	}
	ops := probeOps / 4
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		k := i % flows
		res.Remove(jobs[k])
		jobs[k] = res.Submit(1e12, 20+rng.Float64()*100, nil)
	}
	return perOp(time.Since(t0), ops, time.Microsecond)
}

// probeYarnAlloc times Request → heartbeat allocation → Release on a
// ResourceManager over nodes nodes, in rounds of one request per node.
func probeYarnAlloc(nodes int) (float64, error) {
	if nodes < 1 {
		return 0, nil
	}
	eng := sim.NewEngine()
	cl, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 1000}, nodes, cluster.C32XLarge())
	if err != nil {
		return 0, err
	}
	rm := yarn.NewResourceManager(eng, cl, yarn.Config{})
	app, err := rm.SubmitApplication("probe", "")
	if err != nil {
		return 0, err
	}
	got := make([]*yarn.Container, 0, nodes)
	rounds := probeOps/4/nodes + 1
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < nodes; i++ {
			app.Request(yarn.Request{Resource: yarn.Resource{VCores: 1, MemMB: 1024}}, func(c *yarn.Container) { got = append(got, c) })
		}
		eng.Run()
		if len(got) != nodes {
			return 0, fmt.Errorf("yarn probe: %d of %d requests allocated", len(got), nodes)
		}
		for _, c := range got {
			app.Release(c)
		}
		got = got[:0]
		eng.Run()
	}
	return perOp(time.Since(t0), rounds*nodes, time.Microsecond), nil
}

// probeHDFSPut times FS.Put of one-block files at the workload's node count
// and replication: one replica placement each.
func probeHDFSPut(nodes, replication int) (float64, error) {
	if nodes < 1 {
		return 0, nil
	}
	eng := sim.NewEngine()
	cl, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 1000}, nodes, cluster.C32XLarge())
	if err != nil {
		return 0, err
	}
	fs := hdfs.New(cl, hdfs.Config{BlockSizeMB: 64, Replication: replication}, 1)
	paths := make([]string, probeOps/4)
	for i := range paths {
		paths[i] = fmt.Sprintf("/probe/f%06d", i)
	}
	t0 := time.Now()
	for _, p := range paths {
		if _, err := fs.Put(p, 8, ""); err != nil {
			return 0, err
		}
	}
	return perOp(time.Since(t0), len(paths), time.Microsecond), nil
}

// memoKeys derives up to n memo keys of the shape core builds — signature,
// container profile, staged input identities, declared outputs — from the
// run's own task-end events.
func memoKeys(events []provenance.Event, n int) []string {
	var keys []string
	for _, ev := range events {
		if len(keys) == n {
			break
		}
		if ev.Type != provenance.TaskEnd {
			continue
		}
		k := memo.Key{Sig: ev.Signature, Profile: memo.Profile{VCores: 1, MemMB: 1024}}
		for _, in := range ev.Inputs {
			k.Inputs = append(k.Inputs, memo.StagedIdentity(in.Path, in.SizeMB))
		}
		for _, out := range ev.Outputs {
			k.Outputs = append(k.Outputs, memo.OutputID{Path: out.Path, SizeMB: out.SizeMB})
		}
		keys = append(keys, k.Encode())
	}
	return keys
}

// probeMemo feeds a standalone memo.Table the run's key set: every key is
// committed once, then looked up once (all hits, as on serve-memo's steady
// state).
func probeMemo(keys []string) (lookupNs, commitNs float64) {
	if len(keys) == 0 {
		return 0, 0
	}
	t := memo.New(0)
	t0 := time.Now()
	for _, k := range keys {
		_ = t.Commit(k, memo.Entry{SourceWF: "probe", CPUSeconds: 40, DurationSec: 12}) // no cold log: cannot fail
	}
	commit := time.Since(t0)
	t0 = time.Now()
	for _, k := range keys {
		t.Lookup(k)
	}
	return perOp(time.Since(t0), len(keys), time.Nanosecond), perOp(commit, len(keys), time.Nanosecond)
}

// provdbTimes is what writing a run's events through a DBStore costs.
type provdbTimes struct {
	putUs, syncMs, reopenMs, bytesPerEvent float64
}

// probeProvdb appends the run's events to a fresh provdb file, syncs it,
// closes it and replays it with provdb.Open.
func probeProvdb(events []provenance.Event, dir string) (provdbTimes, error) {
	var out provdbTimes
	if len(events) == 0 {
		return out, nil
	}
	path := filepath.Join(dir, "probe.provdb")
	os.Remove(path)
	defer os.Remove(path)
	db, err := provdb.Open(path)
	if err != nil {
		return out, err
	}
	st := provenance.NewDBStore(db)
	t0 := time.Now()
	if err := st.AppendBatch(events); err != nil {
		st.Close()
		return out, err
	}
	out.putUs = perOp(time.Since(t0), len(events), time.Microsecond)
	return finishProvdb(out, st, db, path, len(events))
}

// finishProvdb syncs, sizes, closes and reopens a written store.
func finishProvdb(out provdbTimes, st *provenance.DBStore, db *provdb.DB, path string, events int) (provdbTimes, error) {
	t0 := time.Now()
	if err := db.Sync(); err != nil {
		st.Close()
		return out, err
	}
	out.syncMs = ms(time.Since(t0))
	if err := st.Close(); err != nil {
		return out, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return out, err
	}
	out.bytesPerEvent = float64(fi.Size()) / float64(events)
	t0 = time.Now()
	re, err := provdb.Open(path)
	if err != nil {
		return out, err
	}
	out.reopenMs = ms(time.Since(t0))
	if re.Len() != events {
		re.Close()
		return out, fmt.Errorf("provdb replay holds %d events, wrote %d", re.Len(), events)
	}
	return out, re.Close()
}
