package verify

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"hiway/internal/lang/cuneiform"
	"hiway/internal/lang/cwl"
	"hiway/internal/scheduler"
	"hiway/internal/wf"
)

// The differential portability check exercises Hi-WAY's central
// architectural claim — many workflow languages, one execution model — as
// a verifiable property: a scenario's DAG is rendered as both a Cuneiform
// program and a CWL document, each rendering is parsed by its real
// frontend and executed on the scenario's substrate (same chaos plan, same
// elastic churn), and all runs must produce the same canonical outcome.
//
// Comparison is by canonical lineage, not by path: frontends synthesize
// output paths around task IDs, so raw paths differ across renderings and,
// each incarnation running under its own name, across AM incarnations.
// Every rendered task carries its scenario index in the `idx` value
// parameter; a task's canonical label is "name#idx", its inputs are
// rewritten to «producer-label» references, and the multiset of (label |
// canonical inputs | output arity) keys — plus the canonicalized final
// outputs — must match the spec-derived expectation exactly, for every
// policy and for the kill/resume variant. This is the lineage-equivalence
// idea of cross-run provenance comparison applied as a CI gate.

// portable reports whether the scenario can be rendered in both languages:
// every task must produce exactly one output (the `out` parameter of the
// generated deftask/tool) and carry a signature that is a legal identifier
// in both grammars.
func portable(sc *Scenario) error {
	specs := portSpecs(sc)
	if len(specs) == 0 {
		return fmt.Errorf("no tasks to render")
	}
	for i, t := range specs {
		if len(t.Outputs) != 1 {
			return fmt.Errorf("task %d (%s) has %d outputs; renderings need exactly 1", i, t.Name, len(t.Outputs))
		}
		if !identLike(t.Name) {
			return fmt.Errorf("task %d signature %q is not an identifier", i, t.Name)
		}
	}
	return nil
}

func identLike(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// portSpecs is the full task list a rendering must express: the static
// graph plus the iteration chain. Renderings fold IterTasks in statically —
// the chain is data-dependent in the spec driver but fully known here, so
// the CWL rendering stays a static workflow (and static policies apply to
// it even when the spec scenario is "iterative").
func portSpecs(sc *Scenario) []TaskSpec {
	specs := make([]TaskSpec, 0, sc.TotalTasks())
	specs = append(specs, sc.Tasks...)
	specs = append(specs, sc.IterTasks...)
	return specs
}

// sigProfile normalizes resources per signature: Cuneiform attaches @cpu
// and @size to the deftask (one set per signature), so both renderings use
// the first occurrence's numbers for every task of that signature.
type sigProfile struct {
	name string
	cpu  float64
	size float64
}

func sigProfiles(specs []TaskSpec) []sigProfile {
	var order []sigProfile
	seen := map[string]bool{}
	for _, t := range specs {
		if seen[t.Name] {
			continue
		}
		seen[t.Name] = true
		order = append(order, sigProfile{name: t.Name, cpu: t.CPUSeconds, size: t.OutSizeMB})
	}
	return order
}

// producerIndex maps each produced output path to its task index.
func producerIndex(specs []TaskSpec) map[string]int {
	m := make(map[string]int, len(specs))
	for i, t := range specs {
		for _, p := range t.Outputs {
			m[p] = i
		}
	}
	return m
}

// sinkIndexes are the tasks whose outputs no other task consumes — the
// workflow outputs of both renderings.
func sinkIndexes(specs []TaskSpec) []int {
	consumed := map[string]bool{}
	for _, t := range specs {
		for _, p := range t.Inputs {
			consumed[p] = true
		}
	}
	var sinks []int
	for i, t := range specs {
		if !consumed[t.Outputs[0]] {
			sinks = append(sinks, i)
		}
	}
	return sinks
}

// RenderCuneiform renders the scenario's DAG as a Cuneiform program: one
// deftask per signature (aggregate input list `<x>`, value parameter
// `~idx` carrying the scenario task index, so memoization never collapses
// two tasks), one let binding per task in spec order, and one target per
// sink.
func RenderCuneiform(sc *Scenario) (string, error) {
	if err := portable(sc); err != nil {
		return "", fmt.Errorf("verify: cuneiform rendering: %v", err)
	}
	specs := portSpecs(sc)
	producer := producerIndex(specs)
	var b strings.Builder
	for _, p := range sigProfiles(specs) {
		fmt.Fprintf(&b, "deftask %s( out : <x> ~idx ) @cpu %g @size out %g in bash *{run %s}*\n",
			p.name, p.cpu, p.size, p.name)
	}
	b.WriteString("\n")
	for i, t := range specs {
		var vals []string
		for _, in := range t.Inputs {
			if j, ok := producer[in]; ok {
				vals = append(vals, fmt.Sprintf("t%d", j))
			} else {
				vals = append(vals, fmt.Sprintf("%q", in))
			}
		}
		arg := "nil"
		if len(vals) > 0 {
			arg = strings.Join(vals, " ")
		}
		fmt.Fprintf(&b, "let t%d = %s( x: %s idx: \"%d\" );\n", i, t.Name, arg, i)
	}
	for _, i := range sinkIndexes(specs) {
		fmt.Fprintf(&b, "t%d;\n", i)
	}
	return b.String(), nil
}

// RenderCWL renders the scenario's DAG as a CWL v1.2 $graph document: one
// CommandLineTool per signature (File[] input `x`, string input `idx`,
// hiway:Profile hint carrying the normalized resources), one step per task
// in spec order, workflow inputs for the staged paths, and workflow
// outputs for the sinks. The JSON is deterministic (arrays in spec order,
// object keys sorted by the marshaller).
func RenderCWL(sc *Scenario) (string, error) {
	if err := portable(sc); err != nil {
		return "", fmt.Errorf("verify: cwl rendering: %v", err)
	}
	specs := portSpecs(sc)
	producer := producerIndex(specs)

	// Workflow inputs: every consumed path no task produces, in first-use
	// order, named f0, f1, … .
	inputID := map[string]string{}
	var wfInputs []any
	for _, t := range specs {
		for _, p := range t.Inputs {
			if _, produced := producer[p]; produced {
				continue
			}
			if _, ok := inputID[p]; ok {
				continue
			}
			id := fmt.Sprintf("f%d", len(inputID))
			inputID[p] = id
			wfInputs = append(wfInputs, map[string]any{
				"id": id, "type": "File",
				"default": map[string]any{"class": "File", "location": p},
			})
		}
	}

	var steps []any
	for i, t := range specs {
		var sources []string
		for _, in := range t.Inputs {
			if j, ok := producer[in]; ok {
				sources = append(sources, fmt.Sprintf("t%d/out", j))
			} else {
				sources = append(sources, inputID[in])
			}
		}
		if sources == nil {
			sources = []string{}
		}
		steps = append(steps, map[string]any{
			"id":  fmt.Sprintf("t%d", i),
			"run": "#" + t.Name,
			"in": []any{
				map[string]any{"id": "x", "source": sources},
				map[string]any{"id": "idx", "default": fmt.Sprintf("%d", i)},
			},
			"out": []any{"out"},
		})
	}

	var wfOutputs []any
	for _, i := range sinkIndexes(specs) {
		wfOutputs = append(wfOutputs, map[string]any{
			"id":           fmt.Sprintf("o%d", i),
			"type":         "File",
			"outputSource": fmt.Sprintf("t%d/out", i),
		})
	}

	graph := []any{map[string]any{
		"class":   "Workflow",
		"id":      "main",
		"inputs":  wfInputs,
		"outputs": wfOutputs,
		"steps":   steps,
	}}
	for _, p := range sigProfiles(specs) {
		graph = append(graph, map[string]any{
			"class":       "CommandLineTool",
			"id":          p.name,
			"baseCommand": []any{"run", p.name},
			"hints": []any{map[string]any{
				"class":      "hiway:Profile",
				"cpuSeconds": p.cpu,
				"outSizeMB":  map[string]any{"out": p.size},
			}},
			"inputs": []any{
				map[string]any{"id": "x", "type": "File[]"},
				map[string]any{"id": "idx", "type": "string"},
			},
			"outputs": []any{map[string]any{"id": "out", "type": "File"}},
		})
	}
	b, err := json.MarshalIndent(map[string]any{"cwlVersion": "v1.2", "$graph": graph}, "", "  ")
	if err != nil { // impossible: the document is plain data
		return "", err
	}
	return string(b) + "\n", nil
}

// specCanonical is the canonical outcome a correct run of any rendering
// must produce, computed straight from the specs: the multiset of
// (label | canonical inputs | output arity) keys plus the canonicalized
// final outputs.
func (s *Scenario) specCanonical() (map[string]int, []string) {
	specs := portSpecs(s)
	producer := producerIndex(specs)
	label := func(i int) string { return specs[i].Name + "#" + fmt.Sprint(i) }
	expected := make(map[string]int, len(specs))
	for i, t := range specs {
		var ins []string
		for _, p := range t.Inputs {
			if j, ok := producer[p]; ok {
				ins = append(ins, "«"+label(j)+"»")
			} else {
				ins = append(ins, p)
			}
		}
		sort.Strings(ins)
		expected[label(i)+"|"+strings.Join(ins, ",")+"|out:1"]++
	}
	var outs []string
	for _, i := range sinkIndexes(specs) {
		outs = append(outs, "«"+label(i)+"»")
	}
	sort.Strings(outs)
	return expected, outs
}

// resultPaths are the output paths one completed task actually produced:
// the provenance record (res.Outputs) when present — required for dynamic
// aggregate outputs whose cardinality only materializes at run time — with
// the statically declared paths as fallback for results that carry no
// outcome (e.g. recovered entries).
func resultPaths(res *wf.TaskResult) []string {
	if len(res.Outputs) > 0 {
		var ps []string
		for _, fis := range res.Outputs {
			for _, fi := range fis {
				ps = append(ps, fi.Path)
			}
		}
		sort.Strings(ps)
		return ps
	}
	return res.Task.DeclaredPaths()
}

// CanonicalOutcome rewrites one run's results into the path-independent
// form specCanonical expects: labels as name#idx (from the `idx` value
// parameter every rendered task carries; tasks without one compare by
// signature alone), inputs as «producer-label» references (paths no
// completed task produced stay literal), outputs likewise. Exported so
// cross-language workload ports — e.g. the CWL rendering of the SNV
// reference pipeline — can assert outcome equivalence the same way the
// portability verifier does.
func CanonicalOutcome(results []*wf.TaskResult, outputs []string) (map[string]int, []string) {
	label := func(t *wf.Task) string { return t.Name + "#" + t.Env["idx"] }
	producedBy := map[string]string{}
	for _, res := range results {
		if !res.Succeeded() {
			continue
		}
		for _, p := range resultPaths(res) {
			producedBy[p] = label(res.Task)
		}
	}
	canonPath := func(p string) string {
		if l, ok := producedBy[p]; ok {
			return "«" + l + "»"
		}
		return p
	}
	multiset := map[string]int{}
	for _, res := range results {
		if !res.Succeeded() {
			continue
		}
		var ins []string
		for _, p := range res.Task.Inputs {
			ins = append(ins, canonPath(p))
		}
		sort.Strings(ins)
		key := fmt.Sprintf("%s|%s|out:%d", label(res.Task), strings.Join(ins, ","), len(resultPaths(res)))
		multiset[key]++
	}
	var outs []string
	for _, p := range outputs {
		outs = append(outs, canonPath(p))
	}
	sort.Strings(outs)
	return multiset, outs
}

// portDrivers returns the per-language driver factories for the scenario's
// renderings. Each call re-parses the source, as a fresh AM incarnation
// does, under a workflow name of its own. Task IDs count from 1 in every
// run, so under one name a resumed incarnation would reissue its
// predecessor's paths and recover by them, and a Cuneiform task discovered
// in another order can inherit the paths of a same-signature task that
// differs only in a value parameter. A rendering's resume is therefore held
// to full re-execution.
func portDrivers(sc *Scenario) (cf, cwlF func() wf.Driver, err error) {
	cfSrc, err := RenderCuneiform(sc)
	if err != nil {
		return nil, nil, err
	}
	cwlSrc, err := RenderCWL(sc)
	if err != nil {
		return nil, nil, err
	}
	incarnation := 0
	name := func() string {
		incarnation++
		return fmt.Sprintf("port-%d-%d", sc.Seed, incarnation)
	}
	cf = func() wf.Driver { return cuneiform.NewDriver(name(), cfSrc) }
	cwlF = func() wf.Driver { return cwl.NewDriver(name(), cwlSrc, cwl.Options{}) }
	return cf, cwlF, nil
}

// runPortability executes the differential portability matrix: the
// Cuneiform rendering under every dynamic policy, the CWL rendering under
// every applicable policy (it is a static workflow even for iterative
// scenarios, since the iteration chain is folded in), plus a kill/resume
// variant per language. Every successful run's canonical outcome must
// equal the spec-derived expectation — which transitively proves the two
// language renderings equivalent under every policy.
func runPortability(sc *Scenario, opts Options) ([]PolicyRun, []string) {
	if err := portable(sc); err != nil {
		return nil, []string{fmt.Sprintf("portability: %v", err)}
	}
	cfFactory, cwlFactory, err := portDrivers(sc)
	if err != nil {
		return nil, []string{fmt.Sprintf("portability: %v", err)}
	}
	var exp expectation
	exp.canonical, exp.canonOuts = sc.specCanonical()

	f := &family{sc: sc, tamper: opts.Tamper}
	for _, rd := range []struct {
		lang   string
		driver func() wf.Driver
		// static: the CWL document parses into a static DAG; the Cuneiform
		// program evaluates dynamically, so static planners cannot drive it.
		static bool
	}{{"cuneiform", cfFactory, false}, {"cwl", cwlFactory, true}} {
		var baseline *PolicyRun
		for _, spec := range sc.policySpecs(opts.policies(), rd.driver, rd.lang, rd.static) {
			r := f.run(spec)
			if f.judge("portability "+rd.lang+"/"+spec.name, r, exp) && baseline == nil {
				baseline = r
			}
		}
		if !opts.SkipResume && baseline != nil {
			r := f.run(runSpec{name: "resume", lang: rd.lang, driver: rd.driver, policy: scheduler.PolicyFCFS, killAt: killPoint(baseline)})
			f.judge("portability "+rd.lang+"/resume", r, exp)
		}
	}
	return f.runs, f.fails
}
