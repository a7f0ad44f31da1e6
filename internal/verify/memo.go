package verify

import (
	"hiway/internal/memo"
	"hiway/internal/scheduler"
)

// This file is the memoization verification family. A scenario with Memo
// set runs three extra audited executions against the memo-off baseline
// from the policy matrix:
//
//	memo-cold   — memoization on, empty table. The table must stay silent
//	              (zero hits, zero splices) and the run must reproduce the
//	              baseline's completed multiset and outputs exactly: an
//	              always-missing cache may never change execution.
//	memo-warm   — a fresh substrate served entirely from the table the cold
//	              run populated. Every task must splice (Memoized ==
//	              TotalTasks) without allocating a single worker container,
//	              and the canonical outcome must still equal the baseline.
//	memo-resume — memoization on, fresh table, AM killed mid-run and
//	              resumed. Recovery and memo splicing must compose: every
//	              task is accounted exactly once (recovered, executed, or
//	              spliced) and the outcome equals the baseline.
//
// All three runs keep the full invariant auditor attached, so a splice that
// forged capacity, double-completed a task, or started a consumer before
// its spliced input existed would surface as a violation, not just as a
// diff.

// runMemoFamily executes the family and returns the audited runs plus any
// failures, phrased against the baseline run.
func runMemoFamily(sc *Scenario, baseline *PolicyRun, opts Options) ([]PolicyRun, []string) {
	f := &family{sc: sc, tamper: opts.Tamper}
	tab := memo.New(0)
	specs := []runSpec{
		{name: "memo-cold", driver: sc.Driver, policy: scheduler.PolicyFCFS, memo: tab},
		{name: "memo-warm", driver: sc.Driver, policy: scheduler.PolicyFCFS, memo: tab},
	}
	if !opts.SkipResume {
		specs = append(specs, runSpec{name: "memo-resume", driver: sc.Driver, policy: scheduler.PolicyFCFS,
			memo: memo.New(0), killAt: killPoint(baseline)})
	}
	for _, spec := range specs {
		r := f.run(spec)
		if !f.judge(spec.name, r, expectation{baseline: baseline, outputsOnly: spec.killAt > 0}) {
			continue
		}
		switch spec.name {
		case "memo-cold":
			if r.Memoized != 0 {
				f.failf("memo-cold: %d tasks spliced from an empty table", r.Memoized)
			}
		case "memo-warm":
			if r.Memoized != sc.TotalTasks() {
				f.failf("memo-warm: spliced %d of %d tasks (warm table must serve every task)",
					r.Memoized, sc.TotalTasks())
			}
			if r.Containers != 0 {
				f.failf("memo-warm: allocated %d worker containers (memo-hit tasks re-executed)", r.Containers)
			}
		case "memo-resume":
			// Memo entries may serve tasks whose outputs did not survive the
			// kill, so coverage is once per task, not zero splices.
			if r.Recovered+r.Executed != sc.TotalTasks() {
				f.failf("memo-resume: recovered %d + executed %d != %d total tasks",
					r.Recovered, r.Executed, sc.TotalTasks())
			}
		}
	}
	return f.runs, f.fails
}
