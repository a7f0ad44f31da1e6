package verify

import "strings"

// clearers each drop one optional part of a scenario and report whether it
// had one, in the order Shrink tries them: the memo family first (its runs
// triple the execution count), then the iteration chain, the service tier,
// the elastic membership plan, and the portability family. Whichever part
// carries the failure survives; a memo or portability failure keeps its
// family and the reproducer stays a memo triple or a two-language case.
var clearers = []func(*Scenario) bool{
	func(s *Scenario) bool { had := s.Memo; s.Memo = false; return had },
	func(s *Scenario) bool { had := len(s.IterTasks) > 0; s.IterTasks = nil; return had },
	func(s *Scenario) bool { had := s.Service != nil; s.Service = nil; return had },
	func(s *Scenario) bool { had := s.Elastic != nil; s.Elastic = nil; return had },
	func(s *Scenario) bool { had := s.Portability; s.Portability = false; return had },
}

// ShrinkReport describes a minimization: the reduced scenario plus how many
// candidate executions the search spent.
type ShrinkReport struct {
	Scenario *Scenario `json:"scenario"`
	Probes   int       `json:"probes"`
	// Failures of the minimized scenario (re-checked last, so they describe
	// exactly what the reproducer reproduces).
	Failures []string `json:"failures"`
}

// Shrink minimizes a failing scenario while preserving the failure:
//
//  1. drop each optional part the failure survives without (clearers),
//  2. binary-search the shortest failing task prefix — tasks are stored in
//     topological order with producers before consumers, so every prefix is
//     a dependency-closed workflow,
//  3. greedily remove chaos directives that are not needed for the failure.
//
// The predicate is re-evaluated with a full CheckScenario per candidate, so
// shrinking a scenario that only fails nondeterministically converges to
// whatever still fails — generated scenarios are deterministic, and Tamper
// hooks carried in opts are re-applied to every candidate.
//
// If sc does not fail under opts, Shrink returns it unchanged with zero
// shrink steps applied.
func Shrink(sc *Scenario, opts Options) ShrinkReport {
	probes := 0
	fails := func(s *Scenario) []string {
		probes++
		return CheckScenario(s, opts).Failures
	}
	cur := sc.Clone()
	last := fails(cur)
	if len(last) == 0 {
		return ShrinkReport{Scenario: cur, Probes: probes}
	}

	// 1. Drop each optional part whose absence keeps the failure.
	for _, drop := range clearers {
		if cand := cur.Clone(); drop(cand) {
			if f := fails(cand); len(f) > 0 {
				cur, last = cand, f
			}
		}
	}

	// 2. Shortest failing task prefix, by binary search. The search assumes
	// prefix-monotonicity; when the failure is not monotone the final
	// re-check below rejects a passing candidate and keeps the last known
	// failing scenario. Skipped while an iteration chain survives: its first
	// task consumes the base graph's final artifact, which a shorter prefix
	// would not produce, and the resulting stall would fail for the wrong
	// reason.
	if len(cur.IterTasks) == 0 {
		lo, hi := 1, len(cur.Tasks)
		for lo < hi {
			mid := (lo + hi) / 2
			cand := cur.Clone()
			cand.Tasks = cand.Tasks[:mid]
			if f := fails(cand); len(f) > 0 {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo < len(cur.Tasks) {
			cand := cur.Clone()
			cand.Tasks = cand.Tasks[:lo]
			if f := fails(cand); len(f) > 0 {
				cur, last = cand, f
			}
		}
	}

	// 3. Drop chaos directives one at a time while the failure holds.
	if cur.Chaos != "" {
		dirs := strings.Split(cur.Chaos, ";")
		for i := 0; i < len(dirs); {
			kept := append(append([]string(nil), dirs[:i]...), dirs[i+1:]...)
			cand := cur.Clone()
			cand.Chaos = strings.Join(kept, ";")
			if f := fails(cand); len(f) > 0 {
				dirs = kept
				cur, last = cand, f
			} else {
				i++
			}
		}
	}

	return ShrinkReport{Scenario: cur, Probes: probes, Failures: last}
}
