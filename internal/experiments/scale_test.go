package experiments

import (
	"testing"

	"hiway/internal/scheduler"
)

// A scale point records how deep its engine's event queue ever got — the
// number the choice of queue rests on — and for a sharded point that is the
// deepest shard, not the sum.
func TestScalePointRecordsQueueDepth(t *testing.T) {
	cfg := ScaleConfig{Tasks: 512, Width: 32, Nodes: 16, Policy: scheduler.PolicyFCFS}
	one, err := Scale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Scale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if one.MaxQueueDepth <= 0 || int64(one.MaxQueueDepth) > one.Events {
		t.Fatalf("MaxQueueDepth=%d for a run of %d events", one.MaxQueueDepth, one.Events)
	}
	if again.MaxQueueDepth != one.MaxQueueDepth || again.Events != one.Events {
		t.Fatalf("same configuration, different counts: depth %d/%d, events %d/%d",
			one.MaxQueueDepth, again.MaxQueueDepth, one.Events, again.Events)
	}
	cfg.Shards = 2
	two, err := Scale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if two.MaxQueueDepth <= 0 || two.MaxQueueDepth >= one.MaxQueueDepth {
		t.Fatalf("two half-size shards report depth %d against %d for the whole: a maximum over shards would be lower",
			two.MaxQueueDepth, one.MaxQueueDepth)
	}
}
