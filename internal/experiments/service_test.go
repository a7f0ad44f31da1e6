package experiments

import (
	"strings"
	"testing"

	"hiway/internal/provenance"
)

// TestStalledLoadEndsItsRecord pins what a service-tier run does when a
// workflow stalls — its first bowtie2 attempt hangs and no timeout recovers
// it, so the engine quiesces with the workflow admitted and unfinished. The
// run still drains and is measured: serviceLoad returns it with an error
// that names the stall, the stalled workflow's account is failed, and every
// admitted workflow's provenance record ends with exactly one workflow-end,
// the stalled one's without success.
func TestStalledLoadEndsItsRecord(t *testing.T) {
	var prov *provenance.Manager
	run, err := serviceLoad(ServiceLoadConfig{Seed: 1, DurationSec: 300, MaxConcurrent: 4, MaxQueue: 16,
		RetryAfterSec: 30, RetryLimit: 1, ChaosSpec: "hang=bowtie2@0:1", WithObs: true},
		loadVariant{name: "service-load", arm: func(l *loadEnv) { prov = l.Prov }})
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("error %v, want one naming the stall", err)
	}
	if run == nil || run.Obs == nil {
		t.Fatal("a stalled run returned no measured run")
	}
	var failed []string
	for _, a := range run.Accounts {
		if a.Admitted && !a.Succeeded {
			failed = append(failed, a.ID)
		}
	}
	if len(failed) != 1 || run.Stats.Failed != 1 {
		t.Fatalf("failed accounts %v, Stats.Failed %d; want exactly the stalled one", failed, run.Stats.Failed)
	}
	evs, err := prov.Store().Events()
	if err != nil {
		t.Fatal(err)
	}
	ends := map[string][]provenance.Event{}
	for _, ev := range evs {
		if ev.Type == provenance.WorkflowEnd {
			ends[ev.WorkflowID] = append(ends[ev.WorkflowID], ev)
		}
	}
	for _, a := range run.Accounts {
		if !a.Admitted {
			continue
		}
		if got := ends[a.ID]; len(got) != 1 || got[0].Succeeded != a.Succeeded {
			t.Errorf("%s (succeeded %v): workflow-end events %+v, want exactly one with the same outcome", a.ID, a.Succeeded, got)
		}
	}
}
