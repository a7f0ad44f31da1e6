// Package cwl parses a subset of the Common Workflow Language v1.2 into
// Hi-WAY's black-box task model — the modern frontend companion to the
// paper's Cuneiform/DAX/Galaxy trio. The subset covers CommandLineTool and
// Workflow documents with single-port scatter, secondaryFiles, multi-source
// step inputs, and resource requirements, compiling into the same
// internal/wf DAG every other frontend targets.
//
// Hi-WAY accepts the JSON serialization of CWL (every JSON document is a
// valid CWL document; YAML is a superset of JSON, so any CWL file converts
// mechanically). Documents may be:
//
//   - a $graph bundle: {"cwlVersion": "v1.2", "$graph": [workflow, tools…]},
//   - a standalone Workflow whose steps use inline "run" tools, or
//   - a bare CommandLineTool, executed as a single-task workflow.
//
// The listing fields (inputs, outputs, steps) are accepted in both array
// form ([{"id": …}, …], which fixes task order) and map form ({"id": …},
// ordered by sorted key). Supported types are File, string, File[] and
// string[] (plus the equivalent {"type": "array", "items": …} object form).
//
// Resource hints ride on requirements/hints: the standard
// ResourceRequirement (coresMin → threads, ramMin → memMB, both clamped to
// sane simulation ranges) and the extension class "hiway:Profile" carrying
// cpuSeconds (reference core-seconds), outSizeMB (output id → produced MB)
// and outCount (output id → cardinality of an array output, so a scatter
// over a step-output array has a statically known width).
package cwl

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"hiway/internal/wf"
)

// Resource-hint clamping bounds: simulated containers cannot use more
// parallelism or memory than the largest node spec offers, and array
// outputs are capped so a malformed document cannot allocate unbounded
// tasks or files.
const (
	maxThreads  = 64
	maxMemMB    = 1 << 20
	maxOutCount = 4096
	maxTasks    = 100_000
)

// Options configures parsing.
type Options struct {
	// Inputs overrides workflow input defaults: input id → staged path
	// (the -bind flag of the CLI). A File input with neither a default nor
	// a binding is an error.
	Inputs map[string]string
}

// Driver executes CWL workflows; it is a wf.StaticDriver, so static
// scheduling policies (HEFT, round-robin) apply — the CWL subset has no
// run-time unfolding.
type Driver struct {
	wf.StaticBase
	opts Options
}

// NewDriver returns a static driver for the CWL document src.
func NewDriver(name, src string, opts Options) *Driver {
	d := &Driver{opts: opts}
	d.WFName = name
	d.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
		return build(name, src, opts)
	}
	return d
}

// rawObj is one decoded JSON object with undecoded field values.
type rawObj map[string]json.RawMessage

// namedRaw is one entry of a listing field: its id plus its object.
type namedRaw struct {
	id  string
	obj rawObj
}

// listing decodes a CWL listing field in either array form (objects with
// an "id" field, document order) or map form (id → object, sorted by id).
func listing(raw json.RawMessage, what string) ([]namedRaw, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	var arr []rawObj
	if err := json.Unmarshal(raw, &arr); err == nil {
		out := make([]namedRaw, 0, len(arr))
		for i, obj := range arr {
			id, err := strField(obj, "id")
			if err != nil || id == "" {
				return nil, fmt.Errorf("cwl: %s entry %d has no id", what, i)
			}
			out = append(out, namedRaw{id: id, obj: obj})
		}
		return out, nil
	}
	var m map[string]rawObj
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("cwl: %s must be an array of objects or a map: %v", what, err)
	}
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]namedRaw, 0, len(ids))
	for _, id := range ids {
		out = append(out, namedRaw{id: id, obj: m[id]})
	}
	return out, nil
}

// strField decodes a string-valued field, returning "" when absent.
func strField(obj rawObj, key string) (string, error) {
	raw, ok := obj[key]
	if !ok {
		return "", nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return "", fmt.Errorf("field %q is not a string", key)
	}
	return s, nil
}

// strList decodes a field that is either one string or an array of strings.
func strList(raw json.RawMessage) ([]string, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		return []string{s}, nil
	}
	var ss []string
	if err := json.Unmarshal(raw, &ss); err != nil {
		return nil, fmt.Errorf("want a string or an array of strings")
	}
	return ss, nil
}

// portType is the declared type of a tool or workflow port.
type portType struct {
	file  bool // File vs string
	array bool
}

// parseType decodes a CWL type: "File", "string", "File[]", "string[]", or
// the object form {"type": "array", "items": …}.
func parseType(raw json.RawMessage) (portType, error) {
	if len(raw) == 0 {
		return portType{}, fmt.Errorf("missing type")
	}
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		array := strings.HasSuffix(s, "[]")
		s = strings.TrimSuffix(s, "[]")
		switch s {
		case "File":
			return portType{file: true, array: array}, nil
		case "string":
			return portType{file: false, array: array}, nil
		default:
			return portType{}, fmt.Errorf("unsupported type %q (want File, string, File[], string[])", s)
		}
	}
	var obj struct {
		Type  string          `json:"type"`
		Items json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(raw, &obj); err != nil || obj.Type != "array" {
		return portType{}, fmt.Errorf("unsupported type (want a type name or an array type object)")
	}
	item, err := parseType(obj.Items)
	if err != nil {
		return portType{}, fmt.Errorf("array items: %v", err)
	}
	if item.array {
		return portType{}, fmt.Errorf("nested array types are not supported")
	}
	item.array = true
	return item, nil
}

// profile is the resource model attached to a tool via requirements/hints.
type profile struct {
	cpuSeconds float64
	threads    int
	memMB      int
	outSizeMB  map[string]float64
	outCount   map[string]int
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// parseReqs folds requirements and hints (array form, or map class→object)
// into the profile. Unknown classes are ignored, as CWL hints demand.
func parseReqs(p *profile, raw json.RawMessage) error {
	if len(raw) == 0 {
		return nil
	}
	var entries []rawObj
	if err := json.Unmarshal(raw, &entries); err != nil {
		var m map[string]rawObj
		if err := json.Unmarshal(raw, &m); err != nil {
			return fmt.Errorf("requirements must be an array or a map")
		}
		classes := make([]string, 0, len(m))
		for c := range m {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			obj := rawObj{}
			for k, v := range m[c] {
				obj[k] = v
			}
			obj["class"], _ = json.Marshal(c)
			entries = append(entries, obj)
		}
	}
	for _, e := range entries {
		class, _ := strField(e, "class")
		switch class {
		case "ResourceRequirement":
			var rr struct {
				CoresMin float64 `json:"coresMin"`
				RamMin   float64 `json:"ramMin"`
			}
			b, _ := json.Marshal(e)
			if err := json.Unmarshal(b, &rr); err != nil {
				return fmt.Errorf("ResourceRequirement: %v", err)
			}
			if rr.CoresMin > 0 {
				p.threads = clampInt(int(rr.CoresMin), 1, maxThreads)
			}
			if rr.RamMin > 0 {
				p.memMB = clampInt(int(rr.RamMin), 1, maxMemMB)
			}
		case "hiway:Profile":
			var hp struct {
				CPUSeconds float64            `json:"cpuSeconds"`
				OutSizeMB  map[string]float64 `json:"outSizeMB"`
				OutCount   map[string]int     `json:"outCount"`
			}
			b, _ := json.Marshal(e)
			if err := json.Unmarshal(b, &hp); err != nil {
				return fmt.Errorf("hiway:Profile: %v", err)
			}
			if hp.CPUSeconds > 0 {
				p.cpuSeconds = hp.CPUSeconds
			}
			for id, sz := range hp.OutSizeMB {
				if p.outSizeMB == nil {
					p.outSizeMB = map[string]float64{}
				}
				if sz <= 0 {
					sz = 1
				}
				p.outSizeMB[id] = sz
			}
			for id, n := range hp.OutCount {
				if p.outCount == nil {
					p.outCount = map[string]int{}
				}
				p.outCount[id] = clampInt(n, 1, maxOutCount)
			}
		}
	}
	return nil
}

// toolPort is one declared input or output of a CommandLineTool.
type toolPort struct {
	id             string
	typ            portType
	secondaryFiles []string
	def            []string // tool-level default for string inputs
	hasDefault     bool
}

// tool is one parsed CommandLineTool.
type tool struct {
	id      string
	command string
	inputs  []toolPort
	outputs []toolPort
	prof    profile
}

func parseTool(obj rawObj) (*tool, error) {
	id, _ := strField(obj, "id")
	id = strings.TrimPrefix(id, "#")
	if id == "" {
		return nil, fmt.Errorf("cwl: CommandLineTool has no id")
	}
	t := &tool{id: id}
	base, err := strList(obj["baseCommand"])
	if err != nil {
		return nil, fmt.Errorf("cwl: tool %q baseCommand: %v", id, err)
	}
	args, err := strList(obj["arguments"])
	if err != nil {
		return nil, fmt.Errorf("cwl: tool %q arguments: %v", id, err)
	}
	t.command = strings.Join(append(base, args...), " ")
	if err := parseReqs(&t.prof, obj["requirements"]); err != nil {
		return nil, fmt.Errorf("cwl: tool %q: %v", id, err)
	}
	if err := parseReqs(&t.prof, obj["hints"]); err != nil {
		return nil, fmt.Errorf("cwl: tool %q: %v", id, err)
	}
	ins, err := listing(obj["inputs"], "tool "+id+" inputs")
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, in := range ins {
		typ, err := parseType(in.obj["type"])
		if err != nil {
			return nil, fmt.Errorf("cwl: tool %q input %q: %v", id, in.id, err)
		}
		if seen[in.id] {
			return nil, fmt.Errorf("cwl: tool %q declares input %q twice", id, in.id)
		}
		seen[in.id] = true
		port := toolPort{id: in.id, typ: typ}
		if port.secondaryFiles, err = strList(in.obj["secondaryFiles"]); err != nil {
			return nil, fmt.Errorf("cwl: tool %q input %q secondaryFiles: %v", id, in.id, err)
		}
		if raw, ok := in.obj["default"]; ok {
			vals, err := defaultValues(raw, typ)
			if err != nil {
				return nil, fmt.Errorf("cwl: tool %q input %q default: %v", id, in.id, err)
			}
			port.def, port.hasDefault = vals, true
		}
		t.inputs = append(t.inputs, port)
	}
	outs, err := listing(obj["outputs"], "tool "+id+" outputs")
	if err != nil {
		return nil, err
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("cwl: tool %q declares no outputs", id)
	}
	for _, o := range outs {
		typ, err := parseType(o.obj["type"])
		if err != nil {
			return nil, fmt.Errorf("cwl: tool %q output %q: %v", id, o.id, err)
		}
		if !typ.file {
			return nil, fmt.Errorf("cwl: tool %q output %q must be File or File[]", id, o.id)
		}
		if seen[o.id] {
			return nil, fmt.Errorf("cwl: tool %q declares %q twice", id, o.id)
		}
		seen[o.id] = true
		t.outputs = append(t.outputs, toolPort{id: o.id, typ: typ})
	}
	return t, nil
}

// defaultValues decodes a default for a port: a string, a File object, or
// an array of either, according to the declared type.
func defaultValues(raw json.RawMessage, typ portType) ([]string, error) {
	one := func(raw json.RawMessage) (string, error) {
		if !typ.file {
			var s string
			if err := json.Unmarshal(raw, &s); err != nil {
				return "", fmt.Errorf("want a string")
			}
			return s, nil
		}
		var f struct {
			Class    string `json:"class"`
			Location string `json:"location"`
			Path     string `json:"path"`
		}
		if err := json.Unmarshal(raw, &f); err != nil || f.Class != "File" {
			return "", fmt.Errorf("want a File object {\"class\": \"File\", \"location\": …}")
		}
		p := f.Location
		if p == "" {
			p = f.Path
		}
		if p == "" {
			return "", fmt.Errorf("File default has no location")
		}
		return p, nil
	}
	if !typ.array {
		v, err := one(raw)
		if err != nil {
			return nil, err
		}
		return []string{v}, nil
	}
	var arr []json.RawMessage
	if err := json.Unmarshal(raw, &arr); err != nil {
		return nil, fmt.Errorf("want an array")
	}
	out := make([]string, 0, len(arr))
	for _, e := range arr {
		v, err := one(e)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// stepIn is one bound input of a workflow step.
type stepIn struct {
	id      string
	sources []string
	def     json.RawMessage
}

// step is one workflow step before materialization.
type step struct {
	id      string
	runRef  string
	tool    *tool // inline run
	scatter []string
	ins     []stepIn
	outs    []string
	prof    profile // step-level resource overrides
}

// wfInput is one declared workflow input with its resolved value.
type wfInput struct {
	id   string
	typ  portType
	vals []string
	set  bool
}

// secondaryPath applies a CWL secondaryFiles pattern to a primary path:
// ".ext" appends the suffix; each leading "^" strips one extension first.
func secondaryPath(primary, pattern string) string {
	for strings.HasPrefix(pattern, "^") {
		pattern = strings.TrimPrefix(pattern, "^")
		if i := strings.LastIndex(primary, "."); i > strings.LastIndex(primary, "/") {
			primary = primary[:i]
		}
	}
	return primary + pattern
}

// build parses the document and compiles it into tasks. Dependencies are
// carried by file paths: each step's outputs get synthesized paths
// (<workflow>/<tool>_<taskID>/<outID>, mirroring the Cuneiform frontend)
// that downstream steps bind as inputs, and wf.NewDAG recovers the edges.
func build(name, src string, opts Options) ([]*wf.Task, []string, []wf.Edge, error) {
	fail := func(format string, args ...any) ([]*wf.Task, []string, []wf.Edge, error) {
		return nil, nil, nil, fmt.Errorf(format, args...)
	}
	var doc rawObj
	if err := json.Unmarshal([]byte(src), &doc); err != nil {
		return fail("cwl: parsing %s: %v", name, err)
	}
	if ver, _ := strField(doc, "cwlVersion"); ver == "" {
		return fail("cwl: %s: missing cwlVersion", name)
	}

	// Collect the process objects: the workflow plus the tool registry.
	tools := map[string]*tool{}
	var wfObj rawObj
	addProcess := func(obj rawObj) error {
		class, _ := strField(obj, "class")
		switch class {
		case "CommandLineTool":
			t, err := parseTool(obj)
			if err != nil {
				return err
			}
			if _, dup := tools[t.id]; dup {
				return fmt.Errorf("cwl: tool %q defined twice", t.id)
			}
			tools[t.id] = t
			return nil
		case "Workflow":
			if wfObj != nil {
				return fmt.Errorf("cwl: document contains more than one Workflow")
			}
			wfObj = obj
			return nil
		default:
			return fmt.Errorf("cwl: unsupported process class %q", class)
		}
	}
	if graphRaw, ok := doc["$graph"]; ok {
		var graph []rawObj
		if err := json.Unmarshal(graphRaw, &graph); err != nil {
			return fail("cwl: $graph must be an array of process objects")
		}
		for _, obj := range graph {
			if err := addProcess(obj); err != nil {
				return fail("%v", err)
			}
		}
	} else {
		if err := addProcess(doc); err != nil {
			return fail("%v", err)
		}
	}

	// A bare CommandLineTool runs as a single-step workflow over its own
	// defaults, so `hiway sim -w tool.cwl` works on a tool document.
	if wfObj == nil {
		if len(tools) != 1 {
			return fail("cwl: %s has no Workflow (and is not a single CommandLineTool)", name)
		}
		for id := range tools {
			wfObj = rawObj{
				"steps": json.RawMessage(fmt.Sprintf(`[{"id": %q, "run": %q, "out": %s}]`,
					"main", "#"+id, "[]")),
			}
		}
	}

	// Workflow inputs: bindings override defaults.
	insRaw, err := listing(wfObj["inputs"], "workflow inputs")
	if err != nil {
		return fail("%v", err)
	}
	wfIns := map[string]*wfInput{}
	for _, in := range insRaw {
		if _, dup := wfIns[in.id]; dup {
			return fail("cwl: workflow declares input %q twice", in.id)
		}
		typ, err := parseType(in.obj["type"])
		if err != nil {
			return fail("cwl: workflow input %q: %v", in.id, err)
		}
		wi := &wfInput{id: in.id, typ: typ}
		if bound, ok := opts.Inputs[in.id]; ok {
			wi.vals, wi.set = []string{bound}, true
		} else if raw, ok := in.obj["default"]; ok {
			if wi.vals, err = defaultValues(raw, typ); err != nil {
				return fail("cwl: workflow input %q default: %v", in.id, err)
			}
			wi.set = true
		}
		wfIns[in.id] = wi
	}

	// Steps, with upfront source validation so the wave loop below can
	// attribute any stall to a genuine cycle.
	stepsRaw, err := listing(wfObj["steps"], "workflow steps")
	if err != nil {
		return fail("%v", err)
	}
	if len(stepsRaw) == 0 {
		return fail("cwl: workflow %s declares no steps", name)
	}
	steps := make([]*step, 0, len(stepsRaw))
	byID := map[string]*step{}
	stepOut := map[string]bool{} // "step/out" declared
	for _, sr := range stepsRaw {
		if _, dup := byID[sr.id]; dup {
			return fail("cwl: duplicate step id %q", sr.id)
		}
		st := &step{id: sr.id}
		if runRaw, ok := sr.obj["run"]; ok {
			var ref string
			if err := json.Unmarshal(runRaw, &ref); err == nil {
				st.runRef = strings.TrimPrefix(ref, "#")
			} else {
				var inline rawObj
				if err := json.Unmarshal(runRaw, &inline); err != nil {
					return fail("cwl: step %q: run must be a reference or an inline tool", sr.id)
				}
				if _, ok := inline["id"]; !ok {
					inline["id"], _ = json.Marshal(sr.id)
				}
				if st.tool, err = parseTool(inline); err != nil {
					return fail("cwl: step %q inline run: %v", sr.id, err)
				}
			}
		} else {
			return fail("cwl: step %q has no run", sr.id)
		}
		if scatterRaw, ok := sr.obj["scatter"]; ok {
			if st.scatter, err = strList(scatterRaw); err != nil {
				return fail("cwl: step %q scatter: %v", sr.id, err)
			}
			if len(st.scatter) == 0 {
				return fail("cwl: step %q has an empty scatter", sr.id)
			}
			if len(st.scatter) > 1 {
				return fail("cwl: step %q scatters over %d ports; only single-port scatter is supported", sr.id, len(st.scatter))
			}
		}
		inList, err := listing(sr.obj["in"], "step "+sr.id+" in")
		if err != nil {
			return fail("%v", err)
		}
		seenIn := map[string]bool{}
		for _, b := range inList {
			if seenIn[b.id] {
				return fail("cwl: step %q binds input %q twice", sr.id, b.id)
			}
			seenIn[b.id] = true
			si := stepIn{id: b.id, def: b.obj["default"]}
			if si.sources, err = strList(b.obj["source"]); err != nil {
				return fail("cwl: step %q input %q source: %v", sr.id, b.id, err)
			}
			st.ins = append(st.ins, si)
		}
		if st.outs, err = strList(sr.obj["out"]); err != nil {
			return fail("cwl: step %q out: %v", sr.id, err)
		}
		if err := parseReqs(&st.prof, sr.obj["requirements"]); err != nil {
			return fail("cwl: step %q: %v", sr.id, err)
		}
		if err := parseReqs(&st.prof, sr.obj["hints"]); err != nil {
			return fail("cwl: step %q: %v", sr.id, err)
		}
		byID[sr.id] = st
		steps = append(steps, st)
	}

	// Resolve each step's tool and validate ports and sources.
	for _, st := range steps {
		if st.tool == nil {
			t, ok := tools[st.runRef]
			if !ok {
				return fail("cwl: step %q runs unknown tool %q", st.id, st.runRef)
			}
			st.tool = t
		}
		toolIn := map[string]*toolPort{}
		for i := range st.tool.inputs {
			toolIn[st.tool.inputs[i].id] = &st.tool.inputs[i]
		}
		toolOut := map[string]bool{}
		for _, o := range st.tool.outputs {
			toolOut[o.id] = true
		}
		if len(st.outs) == 0 {
			for _, o := range st.tool.outputs {
				st.outs = append(st.outs, o.id)
			}
		}
		for _, o := range st.outs {
			if !toolOut[o] {
				return fail("cwl: step %q lists output %q, which tool %q does not declare", st.id, o, st.tool.id)
			}
			stepOut[st.id+"/"+o] = true
		}
		for _, b := range st.ins {
			if _, ok := toolIn[b.id]; !ok {
				return fail("cwl: step %q binds %q, which tool %q does not declare", st.id, b.id, st.tool.id)
			}
		}
		for _, p := range st.scatter {
			if _, ok := toolIn[p]; !ok {
				return fail("cwl: step %q scatters over %q, which tool %q does not declare", st.id, p, st.tool.id)
			}
		}
	}
	for _, st := range steps {
		for _, b := range st.ins {
			for _, src := range b.sources {
				if _, ok := wfIns[src]; ok {
					continue
				}
				sid, _, ok := strings.Cut(src, "/")
				if !ok || byID[sid] == nil {
					return fail("cwl: step %q input %q references unknown source %q", st.id, b.id, src)
				}
				if !stepOut[src] {
					return fail("cwl: step %q input %q references %q, which step %q does not produce", st.id, b.id, src, sid)
				}
			}
		}
	}

	// Materialize steps in dependency waves. Document order within a wave
	// fixes the task-ID sequence; a stalled wave is a cycle (all sources
	// were validated to exist above).
	produced := map[string][]string{} // "step/out" → gathered paths, instance order
	var ids wf.IDSeq
	var tasks []*wf.Task
	resolvedSteps := 0
	done := map[string]bool{}
	for resolvedSteps < len(steps) {
		progress := false
		for _, st := range steps {
			if done[st.id] {
				continue
			}
			ready := true
			for _, b := range st.ins {
				for _, src := range b.sources {
					if _, ok := wfIns[src]; ok {
						continue
					}
					if _, ok := produced[src]; !ok {
						ready = false
					}
				}
			}
			if !ready {
				continue
			}
			ts, err := materialize(name, &ids, st, wfIns, produced)
			if err != nil {
				return fail("%v", err)
			}
			tasks = append(tasks, ts...)
			if len(tasks) > maxTasks {
				return fail("cwl: workflow %s expands to more than %d tasks", name, maxTasks)
			}
			done[st.id] = true
			resolvedSteps++
			progress = true
		}
		if !progress {
			var stuck []string
			for _, st := range steps {
				if !done[st.id] {
					stuck = append(stuck, st.id)
				}
			}
			return fail("cwl: cyclic step references among %v", stuck)
		}
	}

	// Validate workflow outputs' sources; the DAG's sinks are the outputs.
	outsRaw, err := listing(wfObj["outputs"], "workflow outputs")
	if err != nil {
		return fail("%v", err)
	}
	for _, o := range outsRaw {
		srcs, err := strList(o.obj["outputSource"])
		if err != nil {
			return fail("cwl: workflow output %q outputSource: %v", o.id, err)
		}
		for _, src := range srcs {
			if _, ok := produced[src]; !ok {
				if _, ok := wfIns[src]; !ok {
					return fail("cwl: workflow output %q references unknown source %q", o.id, src)
				}
			}
		}
	}

	// Initial inputs: every consumed path no task produces (workflow input
	// values plus their secondaryFiles expansions), in first-seen order —
	// the caller stages them before launch.
	producedPath := map[string]bool{}
	for _, t := range tasks {
		for _, fis := range t.Declared {
			for _, fi := range fis {
				producedPath[fi.Path] = true
			}
		}
	}
	var initial []string
	seen := map[string]bool{}
	for _, t := range tasks {
		for _, p := range t.Inputs {
			if !producedPath[p] && !seen[p] {
				seen[p] = true
				initial = append(initial, p)
			}
		}
	}
	return tasks, initial, nil, nil
}

// materialize expands one step into tasks, numbered by ids: one per scatter
// element, or a single task without scatter.
func materialize(name string, ids *wf.IDSeq, st *step, wfIns map[string]*wfInput, produced map[string][]string) ([]*wf.Task, error) {
	t := st.tool
	// Bind every tool input: step bindings win, then tool defaults.
	type binding struct {
		vals []string
		set  bool
	}
	bound := map[string]binding{}
	for _, b := range st.ins {
		var vals []string
		for _, src := range b.sources {
			if wi, ok := wfIns[src]; ok {
				if !wi.set {
					return nil, fmt.Errorf("cwl: workflow input %q (used by step %q) has no default and no binding", src, st.id)
				}
				vals = append(vals, wi.vals...)
				continue
			}
			vals = append(vals, produced[src]...)
		}
		if len(b.sources) == 0 {
			var port *toolPort
			for i := range t.inputs {
				if t.inputs[i].id == b.id {
					port = &t.inputs[i]
				}
			}
			if len(b.def) == 0 {
				return nil, fmt.Errorf("cwl: step %q input %q has neither source nor default", st.id, b.id)
			}
			var err error
			if vals, err = defaultValues(b.def, port.typ); err != nil {
				return nil, fmt.Errorf("cwl: step %q input %q default: %v", st.id, b.id, err)
			}
		}
		bound[b.id] = binding{vals: vals, set: true}
	}
	for _, in := range t.inputs {
		if bound[in.id].set {
			continue
		}
		if in.hasDefault {
			bound[in.id] = binding{vals: in.def, set: true}
			continue
		}
		return nil, fmt.Errorf("cwl: step %q does not bind tool input %q (and it has no default)", st.id, in.id)
	}

	// Scatter width.
	n := 1
	scatterPort := ""
	if len(st.scatter) == 1 {
		scatterPort = st.scatter[0]
		n = len(bound[scatterPort].vals)
		if n == 0 {
			return nil, fmt.Errorf("cwl: step %q scatters over empty input %q", st.id, scatterPort)
		}
	}

	prof := t.prof
	if st.prof.cpuSeconds > 0 {
		prof.cpuSeconds = st.prof.cpuSeconds
	}
	if st.prof.threads > 0 {
		prof.threads = st.prof.threads
	}
	if st.prof.memMB > 0 {
		prof.memMB = st.prof.memMB
	}

	var tasks []*wf.Task
	for i := 0; i < n; i++ {
		task := &wf.Task{
			ID:         ids.Next(),
			Name:       t.id,
			Command:    t.command,
			CPUSeconds: prof.cpuSeconds,
			Threads:    max(1, prof.threads),
			MemMB:      prof.memMB,
			Declared:   make(map[string][]wf.FileInfo),
			Env:        make(map[string]string),
			Meta:       map[string]string{"lang": "cwl", "cwlStep": st.id, "workflow": name},
		}
		seen := map[string]bool{}
		for _, in := range t.inputs {
			vals := bound[in.id].vals
			if in.id == scatterPort {
				vals = vals[i : i+1]
			} else if !in.typ.array && len(vals) != 1 {
				return nil, fmt.Errorf("cwl: step %q input %q is not an array but receives %d values", st.id, in.id, len(vals))
			}
			task.Env[in.id] = strings.Join(vals, " ")
			if !in.typ.file {
				task.Meta["value:"+in.id] = strings.Join(vals, " ")
				continue
			}
			for _, v := range vals {
				paths := []string{v}
				for _, pat := range in.secondaryFiles {
					paths = append(paths, secondaryPath(v, pat))
				}
				for _, p := range paths {
					if !seen[p] {
						seen[p] = true
						task.Inputs = append(task.Inputs, p)
					}
				}
			}
		}
		for _, o := range t.outputs {
			task.OutputParams = append(task.OutputParams, o.id)
			size := prof.outSizeMB[o.id]
			if size <= 0 {
				size = 1
			}
			count := 1
			if o.typ.array {
				if c, ok := prof.outCount[o.id]; ok {
					count = c
				}
			}
			var fis []wf.FileInfo
			for j := 0; j < count; j++ {
				path := fmt.Sprintf("%s/%s_%d/%s", sanitize(name), t.id, task.ID, o.id)
				if o.typ.array {
					path = fmt.Sprintf("%s/%s_%d/%s_%02d", sanitize(name), t.id, task.ID, o.id, j)
				}
				fis = append(fis, wf.FileInfo{Path: path, SizeMB: size})
			}
			task.Declared[o.id] = fis
			paths := make([]string, len(fis))
			for j, fi := range fis {
				paths[j] = fi.Path
			}
			task.Env[o.id] = strings.Join(paths, " ")
			key := st.id + "/" + o.id
			produced[key] = append(produced[key], paths...)
		}
		tasks = append(tasks, task)
	}
	return tasks, nil
}

// sanitize maps a workflow name to a path-safe directory component, exactly
// like the Cuneiform frontend (shared scheme ⇒ comparable provenance).
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}
