package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"hiway/internal/provenance"
)

func TestRunExecutesEveryShard(t *testing.T) {
	for _, workers := range []int{1, 4, 32} {
		var ran [17]atomic.Bool
		err := Run(len(ran), workers, func(i int) error {
			if ran[i].Swap(true) {
				return fmt.Errorf("shard %d ran twice", i)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Fatalf("workers=%d: shard %d never ran", workers, i)
			}
		}
	}
}

// The reported error must be the lowest-indexed failure whatever the worker
// count — error identity is part of the determinism contract.
func TestRunLowestIndexedErrorWins(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 8} {
		err := Run(20, workers, func(i int) error {
			if i == 3 || i == 11 {
				return fmt.Errorf("shard-local %d: %w", i, sentinel)
			}
			return nil
		})
		if err == nil || !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err=%v", workers, err)
		}
		if got := err.Error(); got != "shard 3: shard-local 3: boom" {
			t.Fatalf("workers=%d: err=%q, want the shard-3 failure", workers, got)
		}
	}
}

// A lone shard's error is returned as is, so `hiway sim` with one -w reports
// a workflow's own error text.
func TestRunLoneShardErrorUnwrapped(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		if err := Run(1, workers, func(int) error { return sentinel }); err != sentinel {
			t.Fatalf("workers=%d: err=%v, want the shard's own error", workers, err)
		}
	}
}

func TestRunRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Run(4, workers, func(i int) error {
			if i == 2 {
				panic("shard exploded")
			}
			return nil
		})
		if err == nil || err.Error() != "shard 2: panic: shard exploded" {
			t.Fatalf("workers=%d: err=%v", workers, err)
		}
	}
}

// A failing shard stops no other shard, at any worker count: the first
// shard's failure still leaves every later shard run.
func TestRunWaitsForEveryShardAfterAFailure(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		var ran [6]atomic.Bool
		err := Run(len(ran), workers, func(i int) error {
			ran[i].Store(true)
			if i == 0 {
				return errors.New("boom")
			}
			return nil
		})
		if err == nil || err.Error() != "shard 0: boom" {
			t.Fatalf("workers=%d: err=%v", workers, err)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Fatalf("workers=%d: shard %d never ran after shard 0 failed", workers, i)
			}
		}
	}
}

func TestRunZeroShards(t *testing.T) {
	if err := Run(0, 4, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestMergeEventsTimestampThenShardOrder(t *testing.T) {
	ev := func(ts float64, id string) provenance.Event {
		return provenance.Event{Signature: id, Timestamp: ts}
	}
	merged := MergeEvents(memStores([][]provenance.Event{
		{ev(1, "a1"), ev(5, "a2"), ev(5, "a3")},
		{ev(0, "b1"), ev(5, "b2")},
		{ev(5, "c1"), ev(9, "c2")},
	}, 2))
	want := []string{"b1", "a1", "a2", "a3", "b2", "c1", "c2"}
	if len(merged) != len(want) {
		t.Fatalf("merged %d events, want %d", len(merged), len(want))
	}
	for i, id := range want {
		if merged[i].Signature != id {
			t.Fatalf("position %d: got %s, want %s (full: %v)", i, merged[i].Signature, id, merged)
		}
	}
}

// memStores loads each shard's events into a store of its own, in batches of
// at most batch events, so a shard spans several chunks.
func memStores(shards [][]provenance.Event, batch int) []*provenance.MemStore {
	out := make([]*provenance.MemStore, len(shards))
	for i, evs := range shards {
		out[i] = provenance.NewMemStore()
		for len(evs) > 0 {
			n := min(batch, len(evs))
			if err := out[i].AppendBatch(evs[:n]); err != nil {
				panic(err)
			}
			evs = evs[n:]
		}
	}
	return out
}

// stableSortMerge is the merge MergeEvents replaced — a stable sort of the
// tagged events themselves by (timestamp, shard) — kept as the reference.
func stableSortMerge(shards [][]provenance.Event) []provenance.Event {
	type tagged struct {
		shard int
		ev    provenance.Event
	}
	var all []tagged
	for i, s := range shards {
		for _, ev := range s {
			all = append(all, tagged{shard: i, ev: ev})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].ev.Timestamp != all[b].ev.Timestamp {
			return all[a].ev.Timestamp < all[b].ev.Timestamp
		}
		return all[a].shard < all[b].shard
	})
	out := make([]provenance.Event, len(all))
	for i := range all {
		out[i] = all[i].ev
	}
	return out
}

// randomShards draws shards whose timestamps collide constantly; monotone
// says whether each shard's own clock only moves forward.
func randomShards(rng *rand.Rand, shards, perShard int, monotone bool) [][]provenance.Event {
	out := make([][]provenance.Event, shards)
	for i := range out {
		now := 0.0
		for j, n := 0, rng.Intn(perShard+1); j < n; j++ {
			if monotone {
				now += float64(rng.Intn(3))
			} else {
				now = float64(rng.Intn(8))
			}
			out[i] = append(out[i], provenance.Event{Signature: fmt.Sprintf("s%d-%d", i, j), Timestamp: now})
		}
	}
	return out
}

func TestMergeEventsMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards := randomShards(rng, 1+rng.Intn(9), 40, seed%2 == 0)
		got, want := MergeEvents(memStores(shards, 1+rng.Intn(16))), stableSortMerge(shards)
		if len(got) != len(want) {
			t.Fatalf("seed %d: merged %d events, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i].Signature != want[i].Signature {
				t.Fatalf("seed %d, position %d: got %s, want %s", seed, i, got[i].Signature, want[i].Signature)
			}
		}
	}
}

// BenchmarkMergeEvents times the merge at the two shapes it runs at: a
// sharded `hiway sim` (few long streams) and a server's drain flush (one
// short stream per admitted run), each shard stored in the Manager's
// 128-event batches.
func BenchmarkMergeEvents(b *testing.B) {
	for _, shape := range []struct{ shards, perShard int }{{8, 1000}, {700, 90}} {
		b.Run(fmt.Sprintf("%dx%d", shape.shards, shape.perShard), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			shards := make([][]provenance.Event, shape.shards)
			for i := range shards {
				now := rng.Float64()
				for j := 0; j < shape.perShard; j++ {
					now += rng.Float64()
					shards[i] = append(shards[i], provenance.Event{Timestamp: now})
				}
			}
			stores := memStores(shards, 128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := MergeEvents(stores); len(got) != shape.shards*shape.perShard {
					b.Fatalf("merged %d events", len(got))
				}
			}
		})
	}
}
