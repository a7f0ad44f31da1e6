// Package verify is the property-based scenario verifier: it generates
// random-but-reproducible workflow scenarios (DAG shape, cluster size, chaos
// schedule), executes each one under every scheduler policy with a runtime
// invariant auditor attached to the YARN RM and the AM, and differentially
// compares the runs — all policies must satisfy the shared invariants and
// complete the same task set, and a kill/resume variant must re-execute zero
// completed tasks. A failing seed is minimized by shrinking the task list
// and the chaos schedule before it is reported (see Shrink).
//
// Everything is keyed by a single int64 seed: Generate(seed) is a pure
// function, and the chaos plan inside a scenario uses only bounded,
// targeted directives (never rate-based faults), so a scenario that passes
// once passes forever — which is what lets CI run a seed batch as a gate.
package verify

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/recipes"
	"hiway/internal/sim"
	"hiway/internal/wf"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

// TaskSpec declares one task of a generated scenario. Specs are serializable
// (unlike wf.Task, whose IDs a run assigns), so a scenario JSON is a
// complete reproducer.
type TaskSpec struct {
	Name       string   `json:"name"`    // signature; shared across tasks of the same kind
	Inputs     []string `json:"inputs"`  // paths; produced by earlier tasks or staged inputs
	Outputs    []string `json:"outputs"` // paths; unique per task
	OutSizeMB  float64  `json:"outSizeMB"`
	CPUSeconds float64  `json:"cpuSeconds"`
}

// InputSpec declares one staged initial file.
type InputSpec struct {
	Path   string  `json:"path"`
	SizeMB float64 `json:"sizeMB"`
}

// Scenario is one generated verification case. Tasks are in topological
// order with every producer preceding its consumers, so any prefix of Tasks
// is a dependency-closed workflow — the property the shrinker relies on.
type Scenario struct {
	Seed  int64  `json:"seed"`
	Shape string `json:"shape"`
	Nodes int    `json:"nodes"`

	Inputs []InputSpec `json:"inputs"`
	Tasks  []TaskSpec  `json:"tasks"`
	// IterTasks is a chain of tasks revealed one at a time by an iterative
	// driver (never part of the static graph); non-empty IterTasks make the
	// scenario incompatible with static policies, exactly like Cuneiform.
	IterTasks []TaskSpec `json:"iterTasks,omitempty"`

	// Chaos is a bounded fault plan in the chaos.Parse DSL (targeted
	// crash/hang rules and node events only — no rates), with ChaosSeed
	// making any residual draws deterministic.
	Chaos     string `json:"chaos,omitempty"`
	ChaosSeed int64  `json:"chaosSeed,omitempty"`

	// TimeoutFloorSec is non-zero whenever the chaos plan can hang an
	// attempt, so the fault-tolerance layer can always recover.
	TimeoutFloorSec float64 `json:"timeoutFloorSec,omitempty"`
	Speculate       bool    `json:"speculate,omitempty"`

	// Service, when present, additionally runs an open-loop multi-tenant
	// service load on the scenario's cluster (under the scenario's chaos
	// plan) and audits the tenant-quota and admission-order invariants.
	Service *ServiceSpec `json:"service,omitempty"`

	// Elastic, when present, applies a seeded membership plan (joins,
	// graceful drains, two-phase spot reclaims) to every policy run and the
	// resume variant, auditing the membership-safety and cost-conservation
	// invariants through the churn.
	Elastic *ElasticSpec `json:"elastic,omitempty"`

	// Portability, when set, additionally renders the scenario's DAG as
	// both a Cuneiform program and a CWL document, executes each rendering
	// through its real frontend under the applicable policies plus
	// kill/resume, and requires every run's canonical lineage outcome to
	// equal the spec-derived expectation (see portability.go).
	Portability bool `json:"portability,omitempty"`

	// Memo, when set, additionally runs the memoization family (memo.go): a
	// cold-table run that must equal the memo-off baseline with zero hits, a
	// warm-table run on a fresh substrate that must splice every task
	// without allocating a single worker container, and a kill/resume run
	// with memoization on — all required to reproduce the baseline's
	// completed multiset and outputs.
	Memo bool `json:"memo,omitempty"`
}

// Iterative reports whether the scenario unfolds at run time, which static
// planners cannot schedule.
func (s *Scenario) Iterative() bool { return len(s.IterTasks) > 0 }

// KillsNode reports whether the chaos plan destroys a cluster node. The
// elastic family then plans no drain or spot reclaim of its own, so that
// replication-2 HDFS never loses both copies of a block.
func (s *Scenario) KillsNode() bool { return strings.Contains(s.Chaos, "kill=") }

// TotalTasks is the number of tasks a successful run must complete.
func (s *Scenario) TotalTasks() int { return len(s.Tasks) + len(s.IterTasks) }

// Marshal renders the scenario as indented JSON — the reproducer format
// printed for failing seeds.
func (s *Scenario) Marshal() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil { // impossible: the type is plain data
		panic(err)
	}
	return b
}

// ParseScenario decodes a scenario reproducer.
func ParseScenario(data []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("verify: parsing scenario: %w", err)
	}
	return &s, nil
}

// Clone returns a deep copy (the shrinker mutates candidates freely).
func (s *Scenario) Clone() *Scenario {
	c := *s
	c.Inputs = append([]InputSpec(nil), s.Inputs...)
	c.Tasks = cloneSpecs(s.Tasks)
	c.IterTasks = cloneSpecs(s.IterTasks)
	if s.Service != nil {
		sv := *s.Service
		sv.Tenants = append([]ServiceTenantSpec(nil), s.Service.Tenants...)
		c.Service = &sv
	}
	if s.Elastic != nil {
		es := *s.Elastic
		es.Events = append([]ElasticEvent(nil), s.Elastic.Events...)
		c.Elastic = &es
	}
	return &c
}

func cloneSpecs(in []TaskSpec) []TaskSpec {
	if in == nil {
		return nil
	}
	out := make([]TaskSpec, len(in))
	for i, t := range in {
		out[i] = t
		out[i].Inputs = append([]string(nil), t.Inputs...)
		out[i].Outputs = append([]string(nil), t.Outputs...)
	}
	return out
}

// signature pool: shared names give the estimator-driven policies (HEFT,
// adaptive-greedy) runtime history to work with and give chaos rules
// something to target.
var sigPool = []string{"alpha", "beta", "gamma", "delta"}

// shapes a generated workflow can take.
var shapes = []string{"chain", "fanout", "fanin", "diamond", "layered", "iterative"}

// Generate derives a scenario from the seed. It is a pure function: the
// same seed always yields the same scenario on every platform (math/rand's
// seeded sequence is stable by compatibility promise).
func Generate(seed int64) *Scenario {
	r := rand.New(rand.NewSource(seed))
	sc := &Scenario{
		Seed:  seed,
		Shape: shapes[r.Intn(len(shapes))],
		Nodes: 3 + r.Intn(6), // 3..8
	}

	// Staged inputs.
	nin := 1 + r.Intn(3)
	for i := 0; i < nin; i++ {
		sc.Inputs = append(sc.Inputs, InputSpec{
			Path:   fmt.Sprintf("/data/in-%d.dat", i),
			SizeMB: float64(16 + r.Intn(241)),
		})
	}
	input := func(i int) string { return sc.Inputs[i%len(sc.Inputs)].Path }

	// Task construction. Every task writes exactly one output named by its
	// index, so output paths are unique and prefixes stay dependency-closed.
	out := func(i int) string { return fmt.Sprintf("/wf/t%03d.dat", i) }
	add := func(inputs ...string) int {
		i := len(sc.Tasks)
		sc.Tasks = append(sc.Tasks, TaskSpec{
			Name:       sigPool[r.Intn(len(sigPool))],
			Inputs:     inputs,
			Outputs:    []string{out(i)},
			OutSizeMB:  float64(8 + r.Intn(121)),
			CPUSeconds: float64(5 + r.Intn(116)),
		})
		return i
	}

	switch sc.Shape {
	case "chain":
		n := 3 + r.Intn(6)
		prev := add(input(0))
		for i := 1; i < n; i++ {
			prev = add(out(prev))
		}
	case "fanout":
		width := 3 + r.Intn(6)
		src := add(input(0))
		var mids []string
		for i := 0; i < width; i++ {
			mids = append(mids, out(add(out(src))))
		}
		add(mids...)
	case "fanin":
		width := 3 + r.Intn(6)
		var mids []string
		for i := 0; i < width; i++ {
			mids = append(mids, out(add(input(i))))
		}
		add(mids...)
	case "diamond":
		src := add(input(0))
		left := add(out(src))
		right := add(out(src))
		add(out(left), out(right))
	case "layered":
		layers := 2 + r.Intn(3)
		width := 2 + r.Intn(3)
		prev := []string{}
		for i := range sc.Inputs {
			prev = append(prev, input(i))
		}
		for l := 0; l < layers; l++ {
			var next []string
			for w := 0; w < width; w++ {
				// Consume 1–2 distinct artifacts of the previous layer.
				a := prev[r.Intn(len(prev))]
				ins := []string{a}
				if len(prev) > 1 && r.Intn(2) == 0 {
					b := prev[r.Intn(len(prev))]
					if b != a {
						ins = append(ins, b)
					}
				}
				next = append(next, out(add(ins...)))
			}
			prev = next
		}
	case "iterative":
		base := 2 + r.Intn(2)
		prev := add(input(0))
		for i := 1; i < base; i++ {
			prev = add(out(prev))
		}
		iters := 1 + r.Intn(4)
		last := out(prev)
		for i := 0; i < iters; i++ {
			iout := fmt.Sprintf("/wf/iter-%02d.dat", i)
			sc.IterTasks = append(sc.IterTasks, TaskSpec{
				Name:       "iterate",
				Inputs:     []string{last},
				Outputs:    []string{iout},
				OutSizeMB:  float64(8 + r.Intn(57)),
				CPUSeconds: float64(5 + r.Intn(56)),
			})
			last = iout
		}
	}

	sc.genChaos(r)
	sc.genService(r)
	sc.genElastic(r)
	sc.genPortability(r)
	sc.genMemo(r)
	return sc
}

// genMemo opts about a quarter of all scenarios into the memoization
// family. It draws after every other family so adding it did not perturb
// existing seeds.
func (s *Scenario) genMemo(r *rand.Rand) {
	s.Memo = r.Intn(4) == 0
}

// genPortability opts about a quarter of all scenarios into the
// differential cross-language family. It draws after every other family so
// adding it did not perturb existing seeds. Every generated scenario is
// renderable (one output per task, pooled identifier signatures), so no
// shape gating is needed.
func (s *Scenario) genPortability(r *rand.Rand) {
	s.Portability = r.Intn(4) == 0
}

// genChaos composes a bounded fault plan. Only targeted rules with counts
// and single node events are generated — never rate-based faults — so every
// generated scenario is recoverable by construction: crashes are capped
// below MaxRetries, hangs always come with an attempt timeout, and at most
// one non-AM node dies while HDFS keeps two replicas of every block.
func (s *Scenario) genChaos(r *rand.Rand) {
	s.ChaosSeed = r.Int63n(1 << 30)
	if r.Intn(2) == 0 { // half of all scenarios run fault-free
		return
	}
	sig := func() string {
		// Prefer a signature the scenario actually uses.
		t := s.Tasks[r.Intn(len(s.Tasks))]
		return t.Name
	}
	var dirs []string
	for i, n := 0, r.Intn(3); i < n; i++ { // 0..2 bounded crash rules
		dirs = append(dirs, fmt.Sprintf("crash=%s@0:%d", sig(), 1+r.Intn(2)))
	}
	if r.Intn(3) == 0 { // hang exactly one first attempt; timeouts recover it
		dirs = append(dirs, fmt.Sprintf("hang=%s@0:1", sig()))
		s.TimeoutFloorSec = 600
	}
	if s.Nodes >= 4 && r.Intn(3) == 0 {
		// Kill one non-AM node (node-00 hosts the AM). Replication 2 keeps
		// every block readable after a single node loss.
		victim := 1 + r.Intn(s.Nodes-1)
		dirs = append(dirs, fmt.Sprintf("kill=node-%02d@%d", victim, 30+r.Intn(211)))
	}
	if r.Intn(3) == 0 {
		slow := r.Intn(s.Nodes)
		dirs = append(dirs, fmt.Sprintf("slow=node-%02d@%d:%d", slow, 20+r.Intn(181), 1+r.Intn(2)))
	}
	if len(dirs) == 0 {
		return
	}
	if s.TimeoutFloorSec == 0 && r.Intn(2) == 0 {
		s.TimeoutFloorSec = 600
	}
	if s.TimeoutFloorSec > 0 {
		s.Speculate = r.Intn(2) == 0
	}
	s.Chaos = strings.Join(dirs, ";")
}

// Materialize builds the simulated substrate for one run of the scenario:
// a homogeneous cluster with a zero-vcore AM container (so worker capacity
// is uniform across nodes), replication-2 HDFS, and the staged inputs.
func (s *Scenario) Materialize() (*sim.Engine, core.Env, error) {
	return s.recipe().Materialize()
}

func (s *Scenario) recipe() *recipes.Recipe {
	var inputs []workloads.Input
	for _, in := range s.Inputs {
		inputs = append(inputs, workloads.Input{Path: in.Path, SizeMB: in.SizeMB})
	}
	return &recipes.Recipe{
		Name:       fmt.Sprintf("verify-%d", s.Seed),
		Groups:     []recipes.NodeGroup{{Count: s.Nodes, Spec: cluster.M3Large()}},
		SwitchMBps: 2000,
		HDFS:       hdfs.Config{BlockSizeMB: 256, Replication: 2},
		YARN:       yarn.Config{AMResource: yarn.Resource{VCores: 0, MemMB: 512}},
		Seed:       s.Seed,
		Inputs:     inputs,
	}
}

// task materializes the spec as a fresh wf.Task with the given ID (every run
// builds its own tasks).
func (t TaskSpec) task(id int64) *wf.Task {
	outs := make([]wf.FileInfo, len(t.Outputs))
	for i, p := range t.Outputs {
		outs[i] = wf.FileInfo{Path: p, SizeMB: t.OutSizeMB}
	}
	return &wf.Task{
		ID:           id,
		Name:         t.Name,
		Inputs:       append([]string(nil), t.Inputs...),
		OutputParams: []string{"out"},
		Declared:     map[string][]wf.FileInfo{"out": outs},
		CPUSeconds:   t.CPUSeconds,
		Threads:      1,
	}
}

// Driver builds a fresh workflow driver for the scenario. Non-iterative
// scenarios return a static driver (so static planners can run them);
// iterative ones return a dynamic driver that reveals the iteration chain
// one task at a time. Tasks are numbered in spec order, the chain after the
// base graph.
func (s *Scenario) Driver() wf.Driver {
	base := &wf.StaticBase{
		WFName: fmt.Sprintf("verify-%d-%s", s.Seed, s.Shape),
		Build: func() ([]*wf.Task, []string, []wf.Edge, error) {
			tasks := make([]*wf.Task, len(s.Tasks))
			for i, spec := range s.Tasks {
				tasks[i] = spec.task(int64(i + 1))
			}
			var inputs []string
			for _, in := range s.Inputs {
				inputs = append(inputs, in.Path)
			}
			return tasks, inputs, nil, nil
		},
	}
	if !s.Iterative() {
		return base
	}
	return &dynamicDriver{base: base, nbase: len(s.Tasks), iters: s.IterTasks}
}

// dynamicDriver runs the static base graph and then unfolds the iteration
// chain one task at a time, each discovered only when its predecessor
// completes — the workflow class static policies cannot schedule (§3.4).
// It deliberately does not implement wf.StaticDriver.
type dynamicDriver struct {
	base  *wf.StaticBase
	nbase int // tasks in the base graph
	iters []TaskSpec
	next  int  // index of the next iteration task to emit
	live  bool // an iteration task is in flight
	done  bool
	outs  []string
}

// Name implements wf.Driver.
func (d *dynamicDriver) Name() string { return d.base.WFName + "-dyn" }

// Parse implements wf.Driver.
func (d *dynamicDriver) Parse() ([]*wf.Task, error) { return d.base.Parse() }

func (d *dynamicDriver) emit() *wf.Task {
	spec := d.iters[d.next]
	d.next++
	d.live = true
	return spec.task(int64(d.nbase + d.next))
}

// OnTaskComplete implements wf.Driver: base results feed the static DAG;
// once the base graph drains, the iteration chain unfolds.
func (d *dynamicDriver) OnTaskComplete(res *wf.TaskResult) ([]*wf.Task, error) {
	if res.Task.ID > int64(d.nbase) { // an iteration task
		if !res.Succeeded() {
			return nil, fmt.Errorf("verify: iteration task failed (exit %d): %s", res.ExitCode, res.Error)
		}
		d.live = false
		for _, fi := range res.OutputFiles() {
			d.outs = append(d.outs, fi.Path)
		}
		if d.next < len(d.iters) {
			return []*wf.Task{d.emit()}, nil
		}
		d.done = true
		return nil, nil
	}
	nts, err := d.base.OnTaskComplete(res)
	if err != nil {
		return nil, err
	}
	if d.base.Done() && d.next == 0 && !d.live {
		nts = append(nts, d.emit())
	}
	return nts, nil
}

// Done implements wf.Driver.
func (d *dynamicDriver) Done() bool { return d.done }

// Outputs implements wf.Driver: the base sinks plus the iteration outputs.
func (d *dynamicDriver) Outputs() []string {
	return append(append([]string(nil), d.base.Outputs()...), d.outs...)
}
