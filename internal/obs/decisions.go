package obs

import (
	"fmt"
	"strings"
	"sync"
)

// Decision outcomes.
const (
	// OutcomeAssign: the policy handed a task to the container.
	OutcomeAssign = "assign"
	// OutcomeDecline: the policy declined the container with tasks still
	// queued (adaptive-greedy on a known-slow node, static policies on a
	// node with no planned work); the AM re-requests elsewhere.
	OutcomeDecline = "decline"
	// OutcomeBlacklist: the node failed the health gate; no policy may use
	// it until the blacklist window expires.
	OutcomeBlacklist = "blacklist"
)

// Decision is one scheduling decision: what a policy did with one allocated
// container. The stream of decisions is the scheduler's side of the
// execution trace — deterministic for a deterministic run, which the
// chaos-determinism test asserts by comparing rendered logs byte for byte.
type Decision struct {
	At        float64 // stamped by the log's clock at Record time
	Policy    string
	Node      string  // the node whose container was offered
	Outcome   string  // OutcomeAssign, OutcomeDecline, OutcomeBlacklist
	Task      string  // chosen task's signature (assign only)
	TaskID    int64   // chosen task's ID (assign only)
	Queued    int     // ready tasks queued when the decision was made
	Scanned   int     // candidates the policy actually examined
	LocalFrac float64 // input-locality fraction of the choice; -1 = not considered
}

// DecisionLog accumulates scheduling decisions. Nil-safe: a nil
// *DecisionLog records nothing and allocates nothing.
type DecisionLog struct {
	mu    sync.Mutex
	clock func() float64
	recs  []Decision
}

// NewDecisionLog returns an empty log stamping decisions with clock.
func NewDecisionLog(clock func() float64) *DecisionLog {
	return &DecisionLog{clock: clock}
}

// Record appends one decision, stamping its time.
func (l *DecisionLog) Record(d Decision) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	d.At = l.clock()
	l.recs = append(l.recs, d)
}

// Render formats the log as one line per decision. The format is stable and
// fully determined by the decision stream; task IDs are numbered per run, so
// two runs of the same deterministic execution render byte-identically, in
// one process or in two.
func (l *DecisionLog) Render() string {
	if l == nil {
		return ""
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var b strings.Builder
	for _, d := range l.recs {
		fmt.Fprintf(&b, "%.3f %s %s %s", d.At, d.Policy, d.Node, d.Outcome)
		if d.Outcome == OutcomeAssign {
			fmt.Fprintf(&b, " task=%s id=%d", d.Task, d.TaskID)
		}
		fmt.Fprintf(&b, " queued=%d scanned=%d", d.Queued, d.Scanned)
		if d.LocalFrac >= 0 {
			fmt.Fprintf(&b, " local=%.3f", d.LocalFrac)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
