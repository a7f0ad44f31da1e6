package e2e

import (
	"bytes"
	"strings"
	"testing"

	"hiway/internal/chaos"
	"hiway/internal/core"
	"hiway/internal/obs"
	"hiway/internal/provenance"
	"hiway/internal/scheduler"
)

// TestObsDeterminism runs the same workflow twice under the same chaos plan
// and seed with full observability attached; the scheduler decision logs,
// task IDs included, and the Prometheus metric snapshots must be
// byte-identical across runs. This is the acceptance test for the decision log as a
// debugging artifact: if two same-seed runs rendered differently, diffing a
// good run against a bad one would be meaningless.
func TestObsDeterminism(t *testing.T) {
	run := func() (string, string) {
		driver, inputs := snvWorkload()
		plan, err := chaos.Parse("crashrate=0.2;slow=node-02@20:2", 7)
		if err != nil {
			t.Fatal(err)
		}
		eng, env := newEnv(t, 4, provenance.NewMemStore(), inputs)
		o := obs.New(eng.Now)
		env.Obs = o
		env.RM.SetObs(o)
		env.Prov.SetObs(o)
		plan.Arm(eng, env.RM, env.FS, env.Cluster)
		sched, err := scheduler.New(scheduler.PolicyDataAware, scheduler.Deps{Locality: env.FS, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		am, err := core.Launch(env, driver, sched, core.Config{
			ContainerVCores: 2, ContainerMemMB: 4096,
			Chaos: plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if !am.Finished() {
			t.Fatal("workflow did not terminate under chaos")
		}
		var prom bytes.Buffer
		if err := o.M().WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		return o.D().Render(), prom.String()
	}

	dec1, prom1 := run()
	dec2, prom2 := run()
	if dec1 != dec2 {
		t.Errorf("decision logs differ across same-seed runs:\nrun1:\n%s\nrun2:\n%s", dec1, dec2)
	}
	if prom1 != prom2 {
		t.Errorf("metric snapshots differ across same-seed runs:\nrun1:\n%s\nrun2:\n%s", prom1, prom2)
	}
	// Sanity: the artifacts are non-trivial and the run actually exercised
	// the instrumented paths.
	if strings.Count(dec1, "\n") < 4 {
		t.Fatalf("suspiciously short decision log:\n%s", dec1)
	}
	for _, want := range []string{"dataaware", "assign"} {
		if !strings.Contains(dec1, want) {
			t.Errorf("decision log missing %q:\n%s", want, dec1)
		}
	}
	for _, want := range []string{"hiway_sched_assignments_total", "hiway_core_attempts_total"} {
		if !strings.Contains(prom1, want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
}
