// Package shard runs independent workflow simulations in parallel — one
// complete simulation substrate (engine, cluster, YARN RM, HDFS, provenance
// store) per shard, on a bounded pool of worker goroutines — and merges
// their outputs deterministically.
//
// Discrete-event simulation is inherently serial within one virtual clock,
// but Hi-WAY's unit of isolation is the workflow: two workflows submitted to
// different (simulated) clusters share nothing, so their simulations can
// proceed on separate engines concurrently. The contract that makes the
// parallelism invisible is determinism: for a fixed shard list, every output
// an observer can see — per-shard reports, the merged provenance stream —
// is byte-identical whatever the worker count, including Workers=1 (serial
// mode is the same framework, not a separate code path).
//
// Two rules keep that contract:
//
//  1. Shard functions share no mutable state. Each builds its own substrate
//     and driver and writes only to its own result slot. Task IDs are per
//     run (each driver numbers its own tasks from 1), so a shard may parse
//     and discover tasks on its worker at any point of its run.
//  2. Merge order is a pure function of the data: provenance events are
//     ordered by (timestamp, shard index, within-shard position), never by
//     completion order.
package shard

import (
	"fmt"
	"slices"
	"sync"

	"hiway/internal/provenance"
)

// Run executes fn(i) for every shard i in [0, n) on at most workers
// concurrent goroutines (workers <= 1 means one, which runs the shards in
// order). It always waits for all shards, and a panicking shard fails with
// "panic: …"; if any fail, the error of the lowest-indexed failing shard is
// returned, wrapped with its index, so the reported failure does not depend
// on goroutine interleaving. A lone shard's error is returned as is: there
// is no other shard to tell it from.
func Run(n, workers int, fn func(shard int) error) error {
	if n <= 0 {
		return nil
	}
	workers = min(max(workers, 1), n)
	errs := make([]error, n)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							errs[i] = fmt.Errorf("panic: %v", r)
						}
					}()
					errs[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		if n == 1 {
			return err
		}
		return fmt.Errorf("shard %d: %w", i, err)
	}
	return nil
}

// MergeEvents merges per-shard provenance stores into one stream ordered by
// provenance.MergeKey: (timestamp, shard index, within-shard position). The
// key is total, so equal-timestamp events keep shard order first and
// shard-local order second whether or not a shard's own timestamps are
// monotone, and the result is independent of how the shards were scheduled
// onto workers. The stores are read in place: only 16-byte keys are sorted,
// each pointing at its event through Pos — a position in all the stores'
// events taken in shard order, which orders a shard's events as its own
// positions do — and each event is copied once, into its final place.
func MergeEvents(stores []*provenance.MemStore) []provenance.Event {
	total := 0
	for _, st := range stores {
		total += st.Len()
	}
	keys := make([]provenance.MergeKey, 0, total)
	evs := make([]*provenance.Event, 0, total)
	for i, st := range stores {
		st.Scan(0, func(_ int, chunk []provenance.Event) {
			for j := range chunk {
				keys = append(keys, provenance.MergeKey{Timestamp: chunk[j].Timestamp, Run: int32(i), Pos: int32(len(evs))})
				evs = append(evs, &chunk[j])
			}
		})
	}
	slices.SortFunc(keys, provenance.MergeKey.Compare)
	out := make([]provenance.Event, len(keys))
	for i, k := range keys {
		out[i] = *evs[k.Pos]
	}
	return out
}
