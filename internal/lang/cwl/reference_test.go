package cwl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"hiway/internal/wf"
)

// This file is the decoder the package had before decode: encoding/json
// into json.RawMessage fields, decoded again at every level of nesting.
// It is kept as the reference decode is checked against
// (TestDecodeMatchesReference, FuzzDecodeMatchesReference), so it stays as
// it was except that it fills the document compile reads. It leaves to
// compile what moved there: the checks for repeated tool, step,
// workflow-input and step-binding ids and for a workflow without steps,
// and the one-step workflow around a bare tool. A workflow or step input's
// default it keeps as a decoded value (referenceValue) for compile's
// readDefault, which compareDefaults checks against defaultValues below.

// rawObj is one decoded JSON object with undecoded field values.
type rawObj map[string]json.RawMessage

// namedRaw is one entry of a listing field: its id plus its object.
type namedRaw struct {
	id  string
	obj rawObj
}

// referenceBuild compiles src as build does, through the reference decoder.
func referenceBuild(name, src string, opts Options) ([]*wf.Task, []string, []wf.Edge, error) {
	d, err := referenceDecode(name, src)
	if err != nil {
		return nil, nil, nil, err
	}
	return compile(name, d, opts)
}

// referenceDecode is the reference for decode.
func referenceDecode(name, src string) (*document, error) {
	var doc rawObj
	if err := json.Unmarshal([]byte(src), &doc); err != nil {
		return nil, fmt.Errorf("cwl: parsing %s: %v", name, err)
	}
	if ver, _ := strField(doc, "cwlVersion"); ver == "" {
		return nil, fmt.Errorf("cwl: %s: missing cwlVersion", name)
	}
	d := &document{}
	var wfObj rawObj
	addProcess := func(obj rawObj) error {
		class, _ := strField(obj, "class")
		switch class {
		case "CommandLineTool":
			t, err := parseTool(obj)
			if err != nil {
				return err
			}
			d.tools = append(d.tools, t)
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
			return nil, fmt.Errorf("cwl: $graph must be an array of process objects")
		}
		for _, obj := range graph {
			if err := addProcess(obj); err != nil {
				return nil, err
			}
		}
	} else if err := addProcess(doc); err != nil {
		return nil, err
	}
	if wfObj == nil {
		return d, nil
	}
	w := &workflow{}
	d.workflow = w

	insRaw, err := refListing(wfObj["inputs"], "workflow inputs")
	if err != nil {
		return nil, err
	}
	for _, in := range insRaw {
		typ, err := parseType(in.obj["type"])
		if err != nil {
			return nil, fmt.Errorf("cwl: workflow input %q: %v", in.id, err)
		}
		wi := port{id: in.id, typ: typ}
		if raw, ok := in.obj["default"]; ok {
			wi.def, wi.hasDef = referenceValue(raw), true
		}
		w.inputs = append(w.inputs, wi)
	}

	stepsRaw, err := refListing(wfObj["steps"], "workflow steps")
	if err != nil {
		return nil, err
	}
	for _, sr := range stepsRaw {
		st := &step{id: sr.id}
		if runRaw, ok := sr.obj["run"]; ok {
			var ref string
			if err := json.Unmarshal(runRaw, &ref); err == nil {
				st.runRef = strings.TrimPrefix(ref, "#")
			} else {
				var inline rawObj
				if err := json.Unmarshal(runRaw, &inline); err != nil {
					return nil, fmt.Errorf("cwl: step %q: run must be a reference or an inline tool", sr.id)
				}
				if _, ok := inline["id"]; !ok {
					inline["id"], _ = json.Marshal(sr.id)
				}
				if st.tool, err = parseTool(inline); err != nil {
					return nil, fmt.Errorf("cwl: step %q inline run: %v", sr.id, err)
				}
			}
		} else {
			return nil, fmt.Errorf("cwl: step %q has no run", sr.id)
		}
		if scatterRaw, ok := sr.obj["scatter"]; ok {
			if st.scatter, err = refStrList(scatterRaw); err != nil {
				return nil, fmt.Errorf("cwl: step %q scatter: %v", sr.id, err)
			}
			if len(st.scatter) == 0 {
				return nil, fmt.Errorf("cwl: step %q has an empty scatter", sr.id)
			}
			if len(st.scatter) > 1 {
				return nil, fmt.Errorf("cwl: step %q scatters over %d ports; only single-port scatter is supported", sr.id, len(st.scatter))
			}
		}
		inList, err := refListing(sr.obj["in"], "step "+sr.id+" in")
		if err != nil {
			return nil, err
		}
		for _, b := range inList {
			si := port{id: b.id}
			if raw, ok := b.obj["default"]; ok {
				si.def, si.hasDef = referenceValue(raw), true
			}
			if si.sources, err = refStrList(b.obj["source"]); err != nil {
				return nil, fmt.Errorf("cwl: step %q input %q source: %v", sr.id, b.id, err)
			}
			st.ins = append(st.ins, si)
		}
		if st.outs, err = refStrList(sr.obj["out"]); err != nil {
			return nil, fmt.Errorf("cwl: step %q out: %v", sr.id, err)
		}
		if err := parseReqs(&st.prof, sr.obj["requirements"]); err != nil {
			return nil, fmt.Errorf("cwl: step %q: %v", sr.id, err)
		}
		if err := parseReqs(&st.prof, sr.obj["hints"]); err != nil {
			return nil, fmt.Errorf("cwl: step %q: %v", sr.id, err)
		}
		w.steps = append(w.steps, st)
	}

	outsRaw, err := refListing(wfObj["outputs"], "workflow outputs")
	if err != nil {
		return nil, err
	}
	for _, o := range outsRaw {
		srcs, err := refStrList(o.obj["outputSource"])
		if err != nil {
			return nil, fmt.Errorf("cwl: workflow output %q outputSource: %v", o.id, err)
		}
		w.outputs = append(w.outputs, port{id: o.id, sources: srcs})
	}
	return d, nil
}

// referenceValue decodes a default as decode holds it: a generic value,
// its number literals kept, for compile to read by the port's type.
func referenceValue(raw json.RawMessage) any {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		panic(err) // raw is one value of a document that decoded
	}
	return v
}

// refListing decodes a CWL listing field in either array form (objects with
// an "id" field, document order) or map form (id → object, sorted by id).
func refListing(raw json.RawMessage, what string) ([]namedRaw, error) {
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

// refStrList decodes a field that is either one string or an array of strings.
func refStrList(raw json.RawMessage) ([]string, error) {
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

func parseTool(obj rawObj) (*tool, error) {
	id, _ := strField(obj, "id")
	id = strings.TrimPrefix(id, "#")
	if id == "" {
		return nil, fmt.Errorf("cwl: CommandLineTool has no id")
	}
	t := &tool{id: id}
	base, err := refStrList(obj["baseCommand"])
	if err != nil {
		return nil, fmt.Errorf("cwl: tool %q baseCommand: %v", id, err)
	}
	args, err := refStrList(obj["arguments"])
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
	ins, err := refListing(obj["inputs"], "tool "+id+" inputs")
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
		if port.secondaryFiles, err = refStrList(in.obj["secondaryFiles"]); err != nil {
			return nil, fmt.Errorf("cwl: tool %q input %q secondaryFiles: %v", id, in.id, err)
		}
		if raw, ok := in.obj["default"]; ok {
			vals, err := defaultValues(raw, typ)
			if err != nil {
				return nil, fmt.Errorf("cwl: tool %q input %q default: %v", id, in.id, err)
			}
			port.def = binding{vals, true}
		}
		t.inputs = append(t.inputs, port)
	}
	outs, err := refListing(obj["outputs"], "tool "+id+" outputs")
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
