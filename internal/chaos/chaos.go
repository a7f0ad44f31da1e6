// Package chaos composes deterministic, seed-driven failure plans for the
// simulated substrate — the injection harness behind the fault-tolerance
// layer. A Plan can crash task attempts, hang them forever (the failure
// mode that only timeouts or speculation can rescue), kill or slow down
// nodes at scheduled virtual times, and inject transient HDFS read errors.
//
// Determinism is a hard requirement: the same plan text and seed produce
// the same decision sequence on every run, because decisions are derived
// from a hash of (seed, decision kind, subject, consultation counter)
// rather than from a shared random stream or wall-clock state. The
// simulation engine consults the plan in a deterministic order, so the
// whole chaotic execution replays bit-identically — which is what lets
// tests assert provenance equality across chaos runs.
package chaos

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hiway/internal/cluster"
	"hiway/internal/hdfs"
	"hiway/internal/sim"
	"hiway/internal/wf"
	"hiway/internal/yarn"
)

// Fate is the outcome the harness dictates for one task attempt.
type Fate int

const (
	// FateRun lets the attempt execute normally.
	FateRun Fate = iota
	// FateCrash makes the attempt fail after its compute phase — the
	// stand-in for a tool crashing or exiting non-zero.
	FateCrash
	// FateHang makes the attempt compute forever without completing — the
	// stand-in for a wedged process. Only an attempt timeout (kill-and-retry
	// or speculation) recovers the workflow.
	FateHang
)

func (f Fate) String() string {
	switch f {
	case FateCrash:
		return "crash"
	case FateHang:
		return "hang"
	default:
		return "run"
	}
}

// Injector is the hook the AM consults per task attempt. Plan implements
// it; tests may supply their own.
type Injector interface {
	// TaskFate decides what happens to the attempt of t on node.
	TaskFate(t *wf.Task, node string, attempt int) Fate
}

// TaskRule targets specific task attempts. Zero-valued matchers are
// wildcards: an empty (or "*") signature matches every task, Attempt < 0
// matches every attempt, Count == 0 applies without limit.
type TaskRule struct {
	Signature string
	Attempt   int // -1 matches any attempt
	Count     int // maximum applications; 0 = unlimited
	Fate      Fate

	used int
}

// NodeEvent schedules a node-level disruption at a virtual time.
type NodeEvent struct {
	Node  string
	AtSec float64
	Kind  string // "kill" or "slow"
	Hogs  int    // for "slow": background CPU hogs to add
}

// Plan is a composed failure plan. The zero value injects nothing; build
// plans with NewPlan/Parse and the With/Add methods.
type Plan struct {
	mu   sync.Mutex
	seed int64

	// Rate-driven faults, decided per consultation by seeded hashing.
	CrashRate     float64 // probability an attempt crashes
	HangRate      float64 // probability an attempt hangs forever
	ReadErrorRate float64 // probability one HDFS read fails transiently

	// Spot-market preemption (two-phase notice→reclaim, armed via ArmSpot).
	// Every SpotEverySec, each live spot node independently receives a
	// preemption notice with probability SpotRate; the node is reclaimed
	// SpotNoticeSec after its notice, mirroring real spot markets. Only the
	// elastic harness sets these: spot nodes exist only on an autoscaled
	// cluster, so Parse refuses the spot directives.
	SpotRate      float64 // per-check, per-node notice probability
	SpotNoticeSec float64 // notice→reclaim gap; default 120s
	SpotEverySec  float64 // market-check period; default 60s

	rules  []TaskRule
	events []NodeEvent

	calls map[string]int64 // decision kind → consultations so far
}

// NewPlan returns an empty plan with the given seed.
func NewPlan(seed int64) *Plan {
	return &Plan{seed: seed, calls: make(map[string]int64)}
}

// AddRule appends a targeted task rule (rules are checked in order, before
// the rate-driven faults).
func (p *Plan) AddRule(r TaskRule) *Plan { p.rules = append(p.rules, r); return p }

// Events returns the scheduled node events, sorted by time then node.
func (p *Plan) Events() []NodeEvent {
	out := append([]NodeEvent(nil), p.events...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].AtSec != out[j].AtSec {
			return out[i].AtSec < out[j].AtSec
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// chance makes one deterministic probabilistic decision. The outcome hashes
// the seed, the decision kind, the subject, and a per-kind consultation
// counter — identical plans consulted in identical order (which the
// deterministic simulator guarantees) yield identical decisions.
func (p *Plan) chance(kind, subject string, rate float64) bool {
	if rate <= 0 {
		return false
	}
	p.mu.Lock()
	if p.calls == nil {
		p.calls = make(map[string]int64)
	}
	n := p.calls[kind]
	p.calls[kind] = n + 1
	p.mu.Unlock()
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", p.seed, kind, subject, n)
	// FNV-1a alone leaves the low bits dominated by the trailing counter
	// digit; finalize with a murmur3-style mixer so every input byte
	// avalanches across the whole word.
	v := h.Sum64()
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return float64(v>>11)/float64(1<<53) < rate
}

// TaskFate implements Injector: targeted rules first (in order), then the
// rate-driven crash/hang draws.
func (p *Plan) TaskFate(t *wf.Task, node string, attempt int) Fate {
	p.mu.Lock()
	for i := range p.rules {
		r := &p.rules[i]
		if r.Count > 0 && r.used >= r.Count {
			continue
		}
		if r.Signature != "" && r.Signature != "*" && r.Signature != t.Name {
			continue
		}
		if r.Attempt >= 0 && r.Attempt != attempt {
			continue
		}
		r.used++
		p.mu.Unlock()
		return r.Fate
	}
	p.mu.Unlock()
	if p.chance("crash", t.Name, p.CrashRate) {
		return FateCrash
	}
	if p.chance("hang", t.Name, p.HangRate) {
		return FateHang
	}
	return FateRun
}

// ReadError implements the HDFS read-fault hook: a non-nil error fails one
// simulated read (the caller treats it as a transient stage-in failure and
// retries the attempt elsewhere).
func (p *Plan) ReadError(nodeID string, paths []string) error {
	if p.chance("read", nodeID, p.ReadErrorRate) {
		return fmt.Errorf("chaos: transient read error on %s", nodeID)
	}
	return nil
}

// Arm installs the plan into a materialized environment: node kills and
// slowdowns are scheduled on the engine, and the transient-read fault hook
// is attached to HDFS. Task fates are not armed here — the AM consults
// TaskFate through its configuration.
func (p *Plan) Arm(eng *sim.Engine, rm *yarn.ResourceManager, fs *hdfs.FS, cl *cluster.Cluster) {
	for _, ev := range p.Events() {
		ev := ev
		switch ev.Kind {
		case "kill":
			eng.At(ev.AtSec, func() {
				if rm != nil {
					rm.KillNode(ev.Node)
				}
				if fs != nil {
					fs.KillNode(ev.Node)
				}
			})
		case "slow":
			eng.At(ev.AtSec, func() {
				if cl == nil {
					return
				}
				n := cl.Node(ev.Node)
				if n == nil {
					return
				}
				for i := 0; i < ev.Hogs; i++ {
					n.CPU.SubmitBackground(n.Spec.CPUFactor)
				}
			})
		}
	}
	if p.ReadErrorRate > 0 && fs != nil {
		fs.SetReadFault(p.ReadError)
	}
}

// NodeReclaimer is the membership authority ArmSpot drives — in practice
// the autoscale.Manager. NoticeNode starts a graceful drain with the spot
// deadline; ReclaimNode takes the node away immediately; SpotNodes lists
// the live, not-yet-noticed spot nodes eligible for preemption (sorted, so
// seeded decisions are reproducible).
type NodeReclaimer interface {
	SpotNodes() []string
	NoticeNode(id string)
	ReclaimNode(id string)
}

// ArmSpot installs the plan's spot-market preemptions onto the engine.
// With SpotRate > 0, a market check runs every SpotEverySec (default 60s)
// up to horizonSec: each eligible spot node independently draws a seeded
// chance("spot", node) and, when preempted, is noticed immediately and
// reclaimed SpotNoticeSec (default 120s) later. The check loop
// self-terminates at horizonSec so the engine can quiesce.
func (p *Plan) ArmSpot(eng *sim.Engine, r NodeReclaimer, horizonSec float64) {
	if r == nil || p.SpotRate <= 0 {
		return
	}
	period := p.SpotEverySec
	if period <= 0 {
		period = 60
	}
	notice := p.SpotNoticeSec
	if notice <= 0 {
		notice = 120
	}
	var check func()
	check = func() {
		for _, id := range r.SpotNodes() {
			if !p.chance("spot", id, p.SpotRate) {
				continue
			}
			id := id
			r.NoticeNode(id)
			eng.Schedule(notice, func() { r.ReclaimNode(id) })
		}
		if eng.Now()+period <= horizonSec {
			eng.Schedule(period, check)
		}
	}
	if period <= horizonSec {
		eng.Schedule(period, check)
	}
}

// String renders the plan in the Parse DSL (rates with %g, rules and node
// events in order).
func (p *Plan) String() string {
	var parts []string
	if p.CrashRate > 0 {
		parts = append(parts, fmt.Sprintf("crashrate=%g", p.CrashRate))
	}
	if p.HangRate > 0 {
		parts = append(parts, fmt.Sprintf("hangrate=%g", p.HangRate))
	}
	if p.ReadErrorRate > 0 {
		parts = append(parts, fmt.Sprintf("readerr=%g", p.ReadErrorRate))
	}
	for _, r := range p.rules {
		sig := r.Signature
		if sig == "" {
			sig = "*"
		}
		s := fmt.Sprintf("%s=%s", r.Fate, sig)
		if r.Attempt >= 0 {
			s += fmt.Sprintf("@%d", r.Attempt)
		}
		if r.Count > 0 {
			s += fmt.Sprintf(":%d", r.Count)
		}
		parts = append(parts, s)
	}
	for _, ev := range p.events {
		s := fmt.Sprintf("%s=%s@%g", ev.Kind, ev.Node, ev.AtSec)
		if ev.Kind == "slow" {
			s += fmt.Sprintf(":%d", ev.Hogs)
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ";")
}

// Parse builds a plan from the DSL used by `hiway sim -chaos`. Directives
// are separated by ';' or ',':
//
//	crashrate=P        every attempt crashes with probability P
//	hangrate=P         every attempt hangs with probability P
//	readerr=P          every HDFS read fails transiently with probability P
//	crash=SIG[@N][:C]  crash attempts of signature SIG (N-th attempt only
//	                   if @N given, at most C times if :C given; SIG may
//	                   be "*")
//	hang=SIG[@N][:C]   hang attempts likewise
//	kill=NODE@T        kill NODE at virtual time T seconds
//	slow=NODE@T[:H]    add H (default 1) background CPU hogs to NODE at T
//
// Example: "hang=align@0:1;crashrate=0.05;kill=node-03@120".
//
// Spot preemption is not a directive: spot nodes exist only on an
// autoscaled cluster, so spot=, spotrate=, spotnotice= and spotevery= are
// refused and the error points at hiway elastic's -spot-rate, -spot-notice
// and -spot-every flags.
func Parse(spec string, seed int64) (*Plan, error) {
	p := NewPlan(seed)
	for _, dir := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		key, val, ok := strings.Cut(dir, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: directive %q is not key=value", dir)
		}
		switch key {
		case "crashrate", "hangrate", "readerr":
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil || rate < 0 || rate > 1 {
				return nil, fmt.Errorf("chaos: bad rate in %q (want 0..1)", dir)
			}
			switch key {
			case "crashrate":
				p.CrashRate = rate
			case "hangrate":
				p.HangRate = rate
			case "readerr":
				p.ReadErrorRate = rate
			}
		case "spot", "spotrate", "spotnotice", "spotevery":
			return nil, fmt.Errorf("chaos: %q: spot preemption needs an elastic cluster; use hiway elastic -spot-rate/-spot-notice/-spot-every", dir)
		case "crash", "hang":
			fate := FateCrash
			if key == "hang" {
				fate = FateHang
			}
			rule, err := parseTaskRule(val, fate)
			if err != nil {
				return nil, fmt.Errorf("chaos: %q: %w", dir, err)
			}
			p.AddRule(rule)
		case "kill", "slow":
			ev, err := parseNodeEvent(key, val)
			if err != nil {
				return nil, fmt.Errorf("chaos: %q: %w", dir, err)
			}
			p.events = append(p.events, ev)
		default:
			return nil, fmt.Errorf("chaos: unknown directive %q", key)
		}
	}
	return p, nil
}

// parseTaskRule parses "SIG[@N][:C]".
func parseTaskRule(val string, fate Fate) (TaskRule, error) {
	rule := TaskRule{Attempt: -1, Fate: fate}
	if body, count, ok := strings.Cut(val, ":"); ok {
		n, err := strconv.Atoi(count)
		if err != nil || n <= 0 {
			return rule, fmt.Errorf("bad count %q", count)
		}
		rule.Count = n
		val = body
	}
	if sig, att, ok := strings.Cut(val, "@"); ok {
		n, err := strconv.Atoi(att)
		if err != nil || n < 0 {
			return rule, fmt.Errorf("bad attempt %q", att)
		}
		rule.Attempt = n
		val = sig
	}
	if val == "" {
		return rule, fmt.Errorf("missing signature")
	}
	rule.Signature = val
	return rule, nil
}

// parseNodeEvent parses "NODE@T", with a ":H" hog-count suffix for slow.
func parseNodeEvent(kind, val string) (NodeEvent, error) {
	ev := NodeEvent{Kind: kind, Hogs: 1}
	if body, suffix, ok := strings.Cut(val, ":"); ok {
		if kind != "slow" {
			return ev, fmt.Errorf("only slow takes a suffix")
		}
		n, err := strconv.Atoi(suffix)
		if err != nil || n <= 0 {
			return ev, fmt.Errorf("bad hog count %q", suffix)
		}
		ev.Hogs = n
		val = body
	}
	node, at, ok := strings.Cut(val, "@")
	if !ok || node == "" {
		return ev, fmt.Errorf("want NODE@TIME")
	}
	t, err := strconv.ParseFloat(at, 64)
	if err != nil || t < 0 {
		return ev, fmt.Errorf("bad time %q", at)
	}
	ev.Node = node
	ev.AtSec = t
	return ev, nil
}
