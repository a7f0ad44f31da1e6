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
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
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
	// MaxTasks caps the tasks one document expands to.
	MaxTasks = 100_000
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
}

// NewDriver returns a static driver for the CWL document src.
func NewDriver(name, src string, opts Options) *Driver {
	d := &Driver{}
	d.WFName = name
	d.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
		return build(name, src, opts)
	}
	return d
}

// Document is a decoded CWL document. It is immutable: Driver compiles it
// under any number of run names, on any goroutines.
type Document struct{ d *document }

// Decode decodes the document src, naming it name in its errors.
func Decode(name, src string) (*Document, error) {
	d, err := decode(name, src)
	if err != nil {
		return nil, err
	}
	return &Document{d}, nil
}

// Driver returns a static driver that compiles the document under the run
// name.
func (doc *Document) Driver(name string, opts Options) *Driver {
	d := &Driver{}
	d.WFName = name
	d.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
		return compile(name, doc.d, opts)
	}
	return d
}

// build decodes the document and compiles it into tasks.
func build(name, src string, opts Options) ([]*wf.Task, []string, []wf.Edge, error) {
	d, err := decode(name, src)
	if err != nil {
		return nil, nil, nil, err
	}
	return compile(name, d, opts)
}

// document is a CWL document after decoding: every JSON value the frontend
// reads has been read, and nothing is resolved across processes yet.
type document struct {
	tools    []*tool   // CommandLineTools in document order
	workflow *workflow // nil for a bare CommandLineTool
}

// workflow is a document's one Workflow process.
type workflow struct {
	inputs, outputs []port
	steps           []*step
}

// port is a workflow input or output or a step's input: its type (workflow
// inputs), the sources it names (the others), and its default, which is
// read by type only once used: unless a binding overrides a workflow
// input's, and once a step's tool is known.
type port struct {
	id      string
	typ     portType
	sources []string
	def     any
	hasDef  bool
}

// portType is the declared type of a tool or workflow port.
type portType struct{ file, array bool } // file: File vs string

// profile is the resource model attached to a tool via requirements/hints.
type profile struct {
	cpuSeconds     float64
	threads, memMB int
	outSizeMB      map[string]float64
	outCount       map[string]int
}

// toolPort is one declared input or output of a CommandLineTool.
type toolPort struct {
	id             string
	typ            portType
	secondaryFiles []string
	def            binding // tool-level default
}

// tool is one parsed CommandLineTool.
type tool struct {
	id, command     string
	inputs, outputs []toolPort
	prof            profile
}

// step is one workflow step before materialization.
type step struct {
	id, runRef    string
	tool          *tool // inline run
	scatter, outs []string
	ins           []port
	prof          profile // step-level resource overrides
}

// binding is the values bound to a port, and whether it is bound at all.
type binding struct {
	vals []string
	set  bool
}

// object is a decoded JSON object.
type object = map[string]any

// decode reads src in one pass of encoding/json — numbers kept as their
// literals, so each is parsed only where a field reads it — and walks the
// result into a document.
func decode(name, src string) (*document, error) {
	dec := json.NewDecoder(strings.NewReader(src))
	dec.UseNumber()
	var v any
	err := dec.Decode(&v)
	top, ok := v.(object)
	if err == nil && (!ok && v != nil || strings.TrimLeft(src[dec.InputOffset():], " \t\r\n") != "") {
		err = errors.New("want one JSON object")
	}
	if err != nil {
		return nil, fmt.Errorf("cwl: parsing %s: %v", name, err)
	}
	if ver, _ := str(top["cwlVersion"]); ver == "" {
		return nil, fmt.Errorf("cwl: %s: missing cwlVersion", name)
	}
	procs := []any{top}
	if g, ok := top["$graph"]; ok {
		if procs, ok = objects(g); !ok {
			return nil, errors.New("cwl: $graph must be an array of process objects")
		}
	}
	r, d := &reader{}, &document{}
	for _, p := range procs {
		switch class, _ := str(p.(object)["class"]); class {
		case "CommandLineTool":
			d.tools = append(d.tools, r.tool(p.(object), ""))
		case "Workflow":
			if d.workflow != nil {
				return nil, errors.New("cwl: document contains more than one Workflow")
			}
			d.workflow = r.workflow(p.(object))
		default:
			return nil, fmt.Errorf("cwl: unsupported process class %q", class)
		}
	}
	return d, r.err
}

// str reads a JSON string; null reads as "", as encoding/json leaves a
// string it decodes null into.
func str(v any) (string, bool) {
	s, ok := v.(string)
	return s, ok || v == nil
}

// objects reads an array whose elements are objects or null (read as empty
// objects); null is an empty array.
func objects(v any) ([]any, bool) {
	arr, ok := v.([]any)
	for i, e := range arr {
		if e == nil {
			arr[i] = object(nil)
		} else if _, isObj := e.(object); !isObj {
			return nil, false
		}
	}
	return arr, ok || v == nil
}

// reader walks a decoded document. It keeps the first error it meets and
// reads on over zero values, so a caller checks err once per process. The
// error says where the reader was: in a process (kind "tool", "step" or
// "workflow", and its id) and, unless portKind is "", at one of its ports.
type reader struct {
	err                      error
	kind, id, portKind, port string
}

// failf records the first error, prefixed with where the reader is.
func (r *reader) failf(format string, args ...any) {
	where := []any{r.kind, r.id, r.portKind, r.port}
	if r.err == nil && r.portKind == "" {
		r.err = fmt.Errorf("cwl: %s %q"+format, append(where[:2], args...)...)
	} else if r.err == nil {
		r.err = fmt.Errorf("cwl: %s %q %s %q"+format, append(where, args...)...)
	}
}

// strList reads a field that is one string or an array of strings; an
// absent field is nil.
func (r *reader) strList(o object, key string) []string {
	v, present := o[key]
	if s, isStr := str(v); isStr && present {
		return []string{s}
	} else if !present {
		return nil
	}
	arr, ok := v.([]any)
	out := make([]string, len(arr))
	for i := 0; ok && i < len(arr); i++ {
		out[i], ok = str(arr[i])
	}
	if !ok {
		r.failf(" %s: want a string or an array of strings", key)
	}
	return out
}

// entry is one entry of a listing field: its id plus its object.
type entry struct {
	id  string
	obj object
}

// listing reads a CWL listing field in either array form (objects with an
// "id" field, document order) or map form (id → object, sorted by id). It
// moves the reader off any port.
func (r *reader) listing(o object, key string) []entry {
	r.portKind = ""
	if arr, ok := objects(o[key]); ok {
		out := make([]entry, len(arr))
		for i, e := range arr {
			out[i].obj = e.(object)
			if out[i].id, ok = str(out[i].obj["id"]); !ok || out[i].id == "" {
				r.failf(" %s entry %d has no id", key, i)
				return nil
			}
		}
		return out
	}
	m, ok := o[key].(object)
	out := make([]entry, 0, len(m))
	for id, e := range m {
		obj, isObj := e.(object)
		ok = ok && (isObj || e == nil)
		out = append(out, entry{id, obj})
	}
	if !ok {
		r.failf(" %s must be an array of objects or a map", key)
		return nil
	}
	slices.SortFunc(out, func(a, b entry) int { return strings.Compare(a.id, b.id) })
	return out
}

// typ reads the type of the port the reader is at.
func (r *reader) typ(o object) portType {
	v, ok := o["type"]
	t, err := readType(v, ok)
	if err != nil {
		r.failf(": %v", err)
	}
	return t
}

// folded calls f with the value of each key of o that equals name up to
// case, in sorted key order: encoding/json fills a struct field from every
// such key, and meets them in this order in an object encoded from a map,
// as the reference decoder encodes each requirement.
func folded(o object, name string, f func(any)) {
	var buf [4]string
	keys := buf[:0]
	for k := range o {
		if strings.EqualFold(k, name) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		f(o[k])
	}
}

// foldStr reads the string field name of o as encoding/json decodes it into
// a struct: a null leaves the field as it was, any other non-string fails.
func foldStr(o object, name string) (s string, ok bool) {
	ok = true
	folded(o, name, func(v any) {
		if vs, isStr := v.(string); isStr {
			s = vs
		} else if v != nil {
			ok = false
		}
	})
	return s, ok
}

// number parses a JSON number literal as encoding/json decodes it into an
// int or a float64; null is zero.
func number[T int | float64](v any) (n T, err error) {
	lit, isNum := v.(json.Number)
	if !isNum && v != nil {
		return n, fmt.Errorf("want a number, not %v", v)
	}
	switch p := any(&n).(type) {
	case *int:
		*p, err = strconv.Atoi(cmp.Or(string(lit), "0"))
	case *float64:
		*p, err = strconv.ParseFloat(cmp.Or(string(lit), "0"), 64)
	}
	return n, err
}

// foldNum reads the float64 field name of o (see foldStr).
func foldNum(o object, name string) (n float64, err error) {
	folded(o, name, func(v any) {
		if v != nil && err == nil {
			n, err = number[float64](v)
		}
	})
	return n, err
}

// foldMap reads the map field name of o as encoding/json decodes it into a
// struct: a null empties the map and each object adds its entries.
func foldMap[T int | float64](o object, name string) (m map[string]T, err error) {
	folded(o, name, func(v any) {
		src, isObj := v.(object)
		if v == nil {
			m = nil
		} else if !isObj {
			err = fmt.Errorf("%s: want an object", name)
		} else if m == nil {
			m = make(map[string]T, len(src))
		}
		for k, x := range src {
			n, e := number[T](x)
			m[k], err = n, cmp.Or(err, e)
		}
	})
	return m, err
}

// reqs folds a process's requirements and hints into p: each field is an
// array of objects naming their class, or a map from class to object.
// Unknown classes are ignored, as CWL hints demand.
func (r *reader) reqs(p *profile, o object) {
	for _, key := range [2]string{"requirements", "hints"} {
		var reqs []entry
		if arr, ok := objects(o[key]); ok {
			for _, e := range arr {
				class, _ := str(e.(object)["class"])
				reqs = append(reqs, entry{class, e.(object)})
			}
		} else if _, isMap := o[key].(object); isMap {
			reqs = r.listing(o, key) // a map key is the class, whatever the object says
		} else {
			r.failf(": %s must be an array or a map", key)
		}
		for _, e := range reqs {
			if err := p.add(e.id, e.obj); err != nil {
				r.failf(": %s: %v", e.id, err)
			}
		}
	}
}

// add folds one requirement or hint of the given class into p.
func (p *profile) add(class string, o object) error {
	switch class {
	case "ResourceRequirement":
		cores, err := foldNum(o, "coresMin")
		ram, err2 := foldNum(o, "ramMin")
		if cores > 0 {
			p.threads = min(max(int(cores), 1), maxThreads)
		}
		if ram > 0 {
			p.memMB = min(max(int(ram), 1), maxMemMB)
		}
		return cmp.Or(err, err2)
	case "hiway:Profile":
		cpu, err := foldNum(o, "cpuSeconds")
		sizes, err2 := foldMap[float64](o, "outSizeMB")
		counts, err3 := foldMap[int](o, "outCount")
		if cpu > 0 {
			p.cpuSeconds = cpu
		}
		for id, sz := range sizes {
			if p.outSizeMB == nil {
				p.outSizeMB = map[string]float64{}
			}
			p.outSizeMB[id] = sz
			if sz <= 0 {
				p.outSizeMB[id] = 1
			}
		}
		for id, n := range counts {
			if p.outCount == nil {
				p.outCount = map[string]int{}
			}
			p.outCount[id] = min(max(n, 1), maxOutCount)
		}
		return cmp.Or(err, err2, err3)
	}
	return nil
}

// readType reads a CWL type: "File", "string", "File[]", "string[]", or the
// object form {"type": "array", "items": …}.
func readType(v any, present bool) (portType, error) {
	if !present {
		return portType{}, errors.New("missing type")
	}
	if s, ok := str(v); ok {
		array := strings.HasSuffix(s, "[]")
		if s = strings.TrimSuffix(s, "[]"); s != "File" && s != "string" {
			return portType{}, fmt.Errorf("unsupported type %q (want File, string, File[], string[])", s)
		}
		return portType{file: s == "File", array: array}, nil
	}
	o, isObj := v.(object)
	if typ, ok := foldStr(o, "type"); !isObj || !ok || typ != "array" {
		return portType{}, errors.New("unsupported type (want a type name or an array type object)")
	}
	var items any
	hasItems := false
	folded(o, "items", func(v any) { items, hasItems = v, true })
	item, err := readType(items, hasItems)
	if err != nil {
		return portType{}, fmt.Errorf("array items: %v", err)
	}
	if item.array {
		return portType{}, errors.New("nested array types are not supported")
	}
	item.array = true
	return item, nil
}

// readDefault reads a default as a port of type typ takes it: a string, a
// File object (its location, else its path), or an array of either.
func readDefault(v any, typ portType) ([]string, error) {
	arr, isArr := v.([]any)
	if !typ.array {
		arr = []any{v}
	} else if !isArr && v != nil {
		return nil, errors.New("want an array")
	}
	out := make([]string, len(arr))
	for i, e := range arr {
		o, isObj := e.(object)
		class, ok1 := foldStr(o, "class")
		loc, ok2 := foldStr(o, "location")
		path, ok3 := foldStr(o, "path")
		s, ok := str(e)
		switch {
		case !typ.file && !ok:
			return nil, errors.New("want a string")
		case !typ.file:
			out[i] = s
		case !isObj || !ok1 || !ok2 || !ok3 || class != "File":
			return nil, errors.New(`want a File object {"class": "File", "location": …}`)
		case cmp.Or(loc, path) == "":
			return nil, errors.New("File default has no location")
		default:
			out[i] = cmp.Or(loc, path)
		}
	}
	return out, nil
}

// tool reads one CommandLineTool; id stands in for an absent "id".
func (r *reader) tool(o object, id string) *tool {
	if v, ok := o["id"]; ok || id == "" {
		id, _ = str(v)
	}
	if id = strings.TrimPrefix(id, "#"); id == "" {
		r.err = cmp.Or(r.err, errors.New("cwl: CommandLineTool has no id"))
		return nil
	}
	r.kind, r.id, r.portKind = "tool", id, ""
	t := &tool{id: id, command: strings.Join(append(r.strList(o, "baseCommand"), r.strList(o, "arguments")...), " ")}
	r.reqs(&t.prof, o)
	seen := map[string]bool{}
	for _, in := range r.listing(o, "inputs") {
		r.portKind, r.port = "input", in.id
		tp := toolPort{id: in.id, typ: r.typ(in.obj), secondaryFiles: r.strList(in.obj, "secondaryFiles")}
		if seen[in.id] {
			r.failf(" declared twice")
		}
		seen[in.id] = true
		if v, ok := in.obj["default"]; ok {
			vals, err := readDefault(v, tp.typ)
			if err != nil {
				r.failf(" default: %v", err)
			}
			tp.def = binding{vals, true}
		}
		t.inputs = append(t.inputs, tp)
	}
	outs := r.listing(o, "outputs")
	if len(outs) == 0 {
		r.failf(" declares no outputs")
	}
	for _, out := range outs {
		r.portKind, r.port = "output", out.id
		tp := toolPort{id: out.id, typ: r.typ(out.obj)}
		if !tp.typ.file {
			r.failf(" must be File or File[]")
		}
		if seen[out.id] {
			r.failf(" declared twice")
		}
		seen[out.id] = true
		t.outputs = append(t.outputs, tp)
	}
	return t
}

// workflow reads the Workflow process: its inputs, outputs and steps.
func (r *reader) workflow(o object) *workflow {
	r.kind = "workflow"
	r.id, _ = str(o["id"])
	w := &workflow{}
	for _, in := range r.listing(o, "inputs") {
		r.portKind, r.port = "input", in.id
		wi := port{id: in.id, typ: r.typ(in.obj)}
		wi.def, wi.hasDef = in.obj["default"]
		w.inputs = append(w.inputs, wi)
	}
	for _, out := range r.listing(o, "outputs") {
		r.portKind, r.port = "output", out.id
		w.outputs = append(w.outputs, port{id: out.id, sources: r.strList(out.obj, "outputSource")})
	}
	for _, e := range r.listing(o, "steps") {
		w.steps = append(w.steps, r.step(e))
	}
	return w
}

// step reads one workflow step.
func (r *reader) step(e entry) *step {
	r.kind, r.id, r.portKind = "step", e.id, ""
	st := &step{id: e.id, scatter: r.strList(e.obj, "scatter"), outs: r.strList(e.obj, "out")}
	if _, ok := e.obj["scatter"]; ok && len(st.scatter) == 0 {
		r.failf(" has an empty scatter")
	} else if len(st.scatter) > 1 {
		r.failf(" scatters over %d ports; only single-port scatter is supported", len(st.scatter))
	}
	r.reqs(&st.prof, e.obj)
	for _, b := range r.listing(e.obj, "in") {
		r.portKind, r.port = "input", b.id
		si := port{id: b.id, sources: r.strList(b.obj, "source")}
		si.def, si.hasDef = b.obj["default"]
		st.ins = append(st.ins, si)
	}
	r.portKind = "" // back at the step: run is its own field
	run, ok := e.obj["run"]
	ref, isRef := str(run)
	inline, isInline := run.(object)
	switch {
	case !ok:
		r.failf(" has no run")
	case isRef:
		st.runRef = strings.TrimPrefix(ref, "#")
	case !isInline:
		r.failf(": run must be a reference or an inline tool")
	default:
		st.tool = r.tool(inline, e.id)
	}
	return st
}

// portIndex returns the position of the port named id, or -1.
func portIndex(ports []toolPort, id string) int {
	return slices.IndexFunc(ports, func(p toolPort) bool { return p.id == id })
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

// compile resolves a document's references and materializes its tasks.
// Dependencies are carried by file paths: each step's outputs get
// synthesized paths (<workflow>/<tool>_<taskID>/<outID>, mirroring the
// Cuneiform frontend) that downstream steps bind as inputs, and wf.NewDAG
// recovers the edges.
func compile(name string, d *document, opts Options) ([]*wf.Task, []string, []wf.Edge, error) {
	fail := func(format string, args ...any) ([]*wf.Task, []string, []wf.Edge, error) {
		return nil, nil, nil, fmt.Errorf(format, args...)
	}
	tools := make(map[string]*tool, len(d.tools))
	for _, t := range d.tools {
		if tools[t.id] != nil {
			return fail("cwl: tool %q defined twice", t.id)
		}
		tools[t.id] = t
	}
	// A bare CommandLineTool runs as a single-step workflow over its own
	// defaults, so `hiway sim -w tool.cwl` works on a tool document.
	w := d.workflow
	if w == nil && len(d.tools) != 1 {
		return fail("cwl: %s has no Workflow (and is not a single CommandLineTool)", name)
	} else if w == nil {
		w = &workflow{steps: []*step{{id: "main", runRef: d.tools[0].id}}}
	}

	// Workflow inputs: bindings override defaults.
	wfIns := make(map[string]binding, len(w.inputs))
	for _, in := range w.inputs {
		if _, dup := wfIns[in.id]; dup {
			return fail("cwl: workflow declares input %q twice", in.id)
		}
		vals, err := readDefault(in.def, in.typ)
		b := binding{vals, in.hasDef}
		if bound, ok := opts.Inputs[in.id]; ok {
			b = binding{[]string{bound}, true}
		} else if in.hasDef && err != nil {
			return fail("cwl: workflow input %q default: %v", in.id, err)
		}
		wfIns[in.id] = b
	}

	// Resolve each step's tool and validate ports and sources upfront, so
	// the wave loop below can attribute any stall to a genuine cycle. The
	// steps resolved are copies: the document stays as decoded.
	if len(w.steps) == 0 {
		return fail("cwl: workflow %s declares no steps", name)
	}
	byID := make(map[string]*step, len(w.steps))
	stepOut := map[string]bool{} // "step/out" declared
	steps := make([]*step, len(w.steps))
	for i, decoded := range w.steps {
		st := *decoded
		steps[i] = &st
		if byID[st.id] != nil {
			return fail("cwl: duplicate step id %q", st.id)
		}
		if byID[st.id] = &st; st.tool == nil {
			if st.tool = tools[st.runRef]; st.tool == nil {
				return fail("cwl: step %q runs unknown tool %q", st.id, st.runRef)
			}
		}
		if len(st.outs) == 0 {
			for _, o := range st.tool.outputs {
				st.outs = append(st.outs, o.id)
			}
		}
		for _, o := range st.outs {
			if portIndex(st.tool.outputs, o) < 0 {
				return fail("cwl: step %q lists output %q, which tool %q does not declare", st.id, o, st.tool.id)
			}
			stepOut[st.id+"/"+o] = true
		}
		for i, b := range st.ins {
			if portIndex(st.tool.inputs, b.id) < 0 {
				return fail("cwl: step %q binds %q, which tool %q does not declare", st.id, b.id, st.tool.id)
			}
			if slices.ContainsFunc(st.ins[:i], func(x port) bool { return x.id == b.id }) {
				return fail("cwl: step %q binds input %q twice", st.id, b.id)
			}
		}
		for _, p := range st.scatter {
			if portIndex(st.tool.inputs, p) < 0 {
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
				if sid, _, ok := strings.Cut(src, "/"); !ok || byID[sid] == nil {
					return fail("cwl: step %q input %q references unknown source %q", st.id, b.id, src)
				} else if !stepOut[src] {
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
	for pending := steps; len(pending) > 0; {
		var waiting []*step
		for _, st := range pending {
			ready := true
			for _, b := range st.ins {
				for _, src := range b.sources {
					_, isInput := wfIns[src]
					_, isProduced := produced[src]
					ready = ready && (isInput || isProduced)
				}
			}
			if !ready {
				waiting = append(waiting, st)
				continue
			}
			ts, err := materialize(name, &ids, st, wfIns, produced)
			if err != nil {
				return fail("%v", err)
			}
			if tasks = append(tasks, ts...); len(tasks) > MaxTasks {
				return fail("cwl: workflow %s expands to more than %d tasks", name, MaxTasks)
			}
		}
		if len(waiting) == len(pending) {
			stuck := make([]string, len(waiting))
			for i, st := range waiting {
				stuck[i] = st.id
			}
			return fail("cwl: cyclic step references among %v", stuck)
		}
		pending = waiting
	}

	// Validate workflow outputs' sources; the DAG's sinks are the outputs.
	for _, o := range w.outputs {
		for _, src := range o.sources {
			_, isInput := wfIns[src]
			if _, ok := produced[src]; !ok && !isInput {
				return fail("cwl: workflow output %q references unknown source %q", o.id, src)
			}
		}
	}

	// Initial inputs: every consumed path no task produces (workflow input
	// values plus their secondaryFiles expansions), in first-seen order —
	// the caller stages them before launch.
	seen := make(map[string]bool, 2*len(tasks))
	for _, paths := range produced {
		for _, p := range paths {
			seen[p] = true
		}
	}
	var initial []string
	for _, t := range tasks {
		for _, p := range t.Inputs {
			if !seen[p] {
				seen[p] = true
				initial = append(initial, p)
			}
		}
	}
	return tasks, initial, nil, nil
}

// materialize expands one step into tasks, numbered by ids: one per scatter
// element, or a single task without scatter.
func materialize(name string, ids *wf.IDSeq, st *step, wfIns map[string]binding, produced map[string][]string) ([]*wf.Task, error) {
	t := st.tool
	// Bind every tool input: step bindings win, then tool defaults.
	bound := make([]binding, len(t.inputs))
	for _, b := range st.ins {
		k := portIndex(t.inputs, b.id)
		for _, src := range b.sources {
			got, isInput := wfIns[src]
			if isInput && !got.set {
				return nil, fmt.Errorf("cwl: workflow input %q (used by step %q) has no default and no binding", src, st.id)
			} else if !isInput {
				got.vals = produced[src]
			}
			bound[k].vals = append(bound[k].vals, got.vals...)
		}
		var err error
		if len(b.sources) == 0 && !b.hasDef {
			return nil, fmt.Errorf("cwl: step %q input %q has neither source nor default", st.id, b.id)
		} else if len(b.sources) == 0 {
			bound[k].vals, err = readDefault(b.def, t.inputs[k].typ)
		}
		if err != nil {
			return nil, fmt.Errorf("cwl: step %q input %q default: %v", st.id, b.id, err)
		}
		bound[k].set = true
	}
	// Step-level overrides are positive when set.
	prof := t.prof
	prof.cpuSeconds = cmp.Or(st.prof.cpuSeconds, prof.cpuSeconds)
	prof.threads = cmp.Or(st.prof.threads, prof.threads)
	prof.memMB = cmp.Or(st.prof.memMB, prof.memMB)

	// Fill in tool defaults and size the step: its scatter width n, and at
	// most nPaths input paths per task.
	scatter, n, nPaths := -1, 1, 0
	if len(st.scatter) == 1 {
		scatter = portIndex(t.inputs, st.scatter[0])
	}
	for k, in := range t.inputs {
		if !bound[k].set {
			bound[k] = in.def
		}
		vals := bound[k].vals
		switch {
		case !bound[k].set:
			return nil, fmt.Errorf("cwl: step %q does not bind tool input %q (and it has no default)", st.id, in.id)
		case k == scatter && len(vals) == 0:
			return nil, fmt.Errorf("cwl: step %q scatters over empty input %q", st.id, in.id)
		case k == scatter:
			n, vals = len(vals), vals[:1]
		case !in.typ.array && len(vals) != 1:
			return nil, fmt.Errorf("cwl: step %q input %q is not an array but receives %d values", st.id, in.id, len(vals))
		}
		if in.typ.file {
			nPaths += len(vals) * (1 + len(in.secondaryFiles))
		}
	}

	outPaths := make([][]string, len(t.outputs))
	tasks := make([]*wf.Task, n)
	for i := range tasks {
		task := &wf.Task{
			ID:           ids.Next(),
			Name:         t.id,
			Command:      t.command,
			CPUSeconds:   prof.cpuSeconds,
			Threads:      max(1, prof.threads),
			MemMB:        prof.memMB,
			Inputs:       make([]string, 0, nPaths),
			OutputParams: make([]string, len(t.outputs)),
			Declared:     make(map[string][]wf.FileInfo, len(t.outputs)),
			Env:          make(map[string]string, len(t.inputs)+len(t.outputs)),
		}
		// Inputs are deduplicated by scanning while a task has few.
		var seen map[string]bool
		if nPaths > 16 {
			seen = make(map[string]bool, nPaths)
		}
		for k, in := range t.inputs {
			vals := bound[k].vals
			if k == scatter {
				vals = vals[i : i+1]
			}
			if task.Env[in.id] = strings.Join(vals, " "); !in.typ.file {
				continue
			}
			for _, v := range vals {
				for s := -1; s < len(in.secondaryFiles); s++ {
					p := v
					if s >= 0 {
						p = secondaryPath(v, in.secondaryFiles[s])
					}
					if seen[p] || seen == nil && slices.Contains(task.Inputs, p) {
						continue
					} else if seen != nil {
						seen[p] = true
					}
					task.Inputs = append(task.Inputs, p)
				}
			}
		}
		for k, o := range t.outputs {
			task.OutputParams[k] = o.id
			size, count := prof.outSizeMB[o.id], 1
			if size <= 0 {
				size = 1
			}
			if c, ok := prof.outCount[o.id]; ok && o.typ.array {
				count = c
			}
			base := wf.OutputPath(name, t.id, task.ID, o.id)
			fis := make([]wf.FileInfo, count)
			for j := range fis {
				fis[j] = wf.FileInfo{Path: base, SizeMB: size}
				if o.typ.array && j < 10 {
					fis[j].Path = base + "_0" + strconv.Itoa(j)
				} else if o.typ.array {
					fis[j].Path = base + "_" + strconv.Itoa(j)
				}
				outPaths[k] = append(outPaths[k], fis[j].Path)
			}
			task.Declared[o.id] = fis
			task.Env[o.id] = strings.Join(outPaths[k][len(outPaths[k])-count:], " ")
		}
		tasks[i] = task
	}
	for k, o := range t.outputs {
		produced[st.id+"/"+o.id] = outPaths[k]
	}
	return tasks, nil
}
