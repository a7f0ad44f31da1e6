package chaos

import (
	"strings"
	"testing"

	"hiway/internal/wf"
)

func task(name string) *wf.Task {
	return &wf.Task{Name: name} // plans key on the signature, never the ID
}

func mustParse(t *testing.T, spec string, seed int64) *Plan {
	t.Helper()
	p, err := Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTaskRuleMatching(t *testing.T) {
	p := NewPlan(1).
		AddRule(TaskRule{Signature: "align", Attempt: 0, Fate: FateHang, Count: 1}).
		AddRule(TaskRule{Signature: "*", Attempt: 2, Fate: FateCrash})

	if f := p.TaskFate(task("align"), "n1", 0); f != FateHang {
		t.Fatalf("align attempt 0: got %v, want hang", f)
	}
	// Count=1 exhausted: second consultation runs normally.
	if f := p.TaskFate(task("align"), "n1", 0); f != FateRun {
		t.Fatalf("align attempt 0 after count exhausted: got %v, want run", f)
	}
	// Wildcard rule matches any signature at attempt 2, unlimited count.
	for i := 0; i < 3; i++ {
		if f := p.TaskFate(task("other"), "n2", 2); f != FateCrash {
			t.Fatalf("wildcard attempt 2: got %v, want crash", f)
		}
	}
	if f := p.TaskFate(task("other"), "n2", 1); f != FateRun {
		t.Fatalf("attempt 1 matches no rule: got %v, want run", f)
	}
}

func TestRateDecisionsDeterministic(t *testing.T) {
	run := func() []Fate {
		p := mustParse(t, "crashrate=0.3;hangrate=0.1", 42)
		var fates []Fate
		for i := 0; i < 50; i++ {
			fates = append(fates, p.TaskFate(task("t"), "n1", 0))
		}
		return fates
	}
	a, b := run(), run()
	var crashes, hangs int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identically-seeded plans: %v vs %v", i, a[i], b[i])
		}
		switch a[i] {
		case FateCrash:
			crashes++
		case FateHang:
			hangs++
		}
	}
	if crashes == 0 {
		t.Fatal("crash rate 0.3 over 50 draws produced no crashes")
	}
	// A different seed must diverge somewhere over 50 draws.
	p2 := mustParse(t, "crashrate=0.3;hangrate=0.1", 43)
	same := true
	for i := 0; i < 50; i++ {
		if p2.TaskFate(task("t"), "n1", 0) != a[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 43 reproduced seed 42's decision sequence exactly")
	}
}

func TestReadErrorDeterministic(t *testing.T) {
	run := func() []bool {
		p := mustParse(t, "readerr=0.25", 7)
		var errs []bool
		for i := 0; i < 40; i++ {
			errs = append(errs, p.ReadError("n1", nil) != nil)
		}
		return errs
	}
	a, b := run(), run()
	any := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read decision %d differs across runs", i)
		}
		any = any || a[i]
	}
	if !any {
		t.Fatal("read error rate 0.25 over 40 draws produced no errors")
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("crashrate=0.05; hang=align@0:1, kill=node-03@120; slow=node-01@60:2; readerr=0.01", 9)
	if err != nil {
		t.Fatal(err)
	}
	if p.CrashRate != 0.05 || p.ReadErrorRate != 0.01 {
		t.Fatalf("rates not parsed: %+v", p)
	}
	if len(p.rules) != 1 {
		t.Fatalf("want 1 rule, got %d", len(p.rules))
	}
	r := p.rules[0]
	if r.Signature != "align" || r.Attempt != 0 || r.Count != 1 || r.Fate != FateHang {
		t.Fatalf("rule mis-parsed: %+v", r)
	}
	evs := p.Events()
	if len(evs) != 2 {
		t.Fatalf("want 2 node events, got %d", len(evs))
	}
	if evs[0].Kind != "slow" || evs[0].Node != "node-01" || evs[0].AtSec != 60 || evs[0].Hogs != 2 {
		t.Fatalf("slow event mis-parsed: %+v", evs[0])
	}
	if evs[1].Kind != "kill" || evs[1].Node != "node-03" || evs[1].AtSec != 120 {
		t.Fatalf("kill event mis-parsed: %+v", evs[1])
	}
	// String round-trips through Parse.
	p2, err := Parse(p.String(), 9)
	if err != nil {
		t.Fatalf("reparse %q: %v", p.String(), err)
	}
	if p2.String() != p.String() {
		t.Fatalf("round trip changed plan: %q vs %q", p.String(), p2.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus=1",
		"crashrate=2",
		"crashrate=x",
		"crash=",
		"crash=t@x",
		"crash=t:0",
		"kill=node",
		"kill=node@-1",
		"kill=node@5:2", // hog count on a kill
		"noequals",
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", spec)
		} else if !strings.Contains(err.Error(), "chaos:") {
			t.Errorf("Parse(%q) error lacks chaos prefix: %v", spec, err)
		}
	}
}

// TestParseRefusesSpotDirectives pins that a spot directive is an error, not
// a plan that arms nothing: no -chaos caller has spot nodes to preempt, and
// the error names the elastic flags that do.
func TestParseRefusesSpotDirectives(t *testing.T) {
	for _, spec := range []string{
		"spot=node-01@5",
		"spotrate=1",
		"spotnotice=30",
		"spotevery=20",
		"crashrate=0.1;spotrate=1;spot=node-01@5",
	} {
		_, err := Parse(spec, 1)
		if err == nil {
			t.Errorf("Parse(%q) accepted a spot directive", spec)
		} else if !strings.Contains(err.Error(), "hiway elastic -spot-rate") {
			t.Errorf("Parse(%q) error does not point at hiway elastic: %v", spec, err)
		}
	}
}
