package cwl

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzParse throws arbitrary bytes at the CWL frontend: no input may panic,
// whatever the JSON decoder makes of it. Seeds are the full-subset sample
// workflow the unit tests use plus fragments around the parser's edges —
// scatter, $graph resolution, map-form listings, and resource hints.
func FuzzParse(f *testing.F) {
	f.Add(sampleCWL)
	f.Add(`{"cwlVersion": "v1.2", "class": "CommandLineTool", "id": "t",
	       "baseCommand": "go", "inputs": [], "outputs": [{"id": "out", "type": "File"}]}`)
	f.Add(`{"cwlVersion": "v1.2", "$graph": [{"class": "Workflow", "id": "w",
	       "steps": [{"id": "s", "run": "#missing", "out": []}]}]}`)
	f.Add(`{"cwlVersion": "v1.2", "$graph": [{"class": "Workflow", "id": "w",
	       "inputs": {"x": {"type": "File[]"}}, "steps": {}}]}`)
	f.Add(`{"cwlVersion": "v1.2", "class": "CommandLineTool", "id": "t",
	       "hints": [{"class": "hiway:Profile", "outCount": {"out": 99999999}}],
	       "inputs": [], "outputs": [{"id": "out", "type": "File[]"}]}`)
	f.Add(`not json at all`)
	f.Add(`{"$graph": []}`)
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = NewDriver("fuzz", src, Options{}).Parse()
	})
}

// tool1 wraps a CommandLineTool's fields (after "id") into a bare-tool
// document.
func tool1(fields string) string {
	return `{"cwlVersion": "v1.2", "class": "CommandLineTool", "id": "t", ` + fields + `}`
}

// decodeSamples are documents in every form the decoder reads a value in —
// map-form listings, requirements and hints, the object type form, inline
// runs with and without an id, scatter, source and out as a string and as
// a list, File defaults by path — and at each place where encoding/json's
// struct decoding differs from a plain walk: case-insensitive fields, null,
// a map-form key overriding a class, number literals, and the array-then-
// map reading of a listing. Accepted and refused documents alike.
var decodeSamples = []string{
	sampleCWL,
	// Map forms, object types, inline runs, scalar and list spellings.
	`{"cwlVersion": "v1.2", "$graph": [
	  {"class": "Workflow", "id": "m",
	   "inputs": {"x": {"type": "File", "default": {"class": "File", "path": "/d/x"}},
	              "n": {"type": "string", "default": "7"}},
	   "outputs": {"o": {"outputSource": "s/out"}},
	   "steps": {"s": {"run": "#t", "in": {"in": {"source": "x"}, "n": {"source": "n"}}, "out": "out",
	                   "hints": {"hiway:Profile": {"cpuSeconds": 9}}},
	             "u": {"run": {"class": "CommandLineTool", "baseCommand": ["cat", "-n"],
	                           "inputs": {"xs": {"type": {"type": "array", "items": "File"}}},
	                           "outputs": {"o": {"type": {"type": "array", "items": "File"}}}},
	                   "scatter": ["xs"], "in": [{"id": "xs", "source": ["s/out", "x"]}], "out": ["o"]}}},
	  {"class": "CommandLineTool", "id": "#t", "baseCommand": "go", "arguments": ["run"],
	   "requirements": {"ResourceRequirement": {"coresMin": 3, "ramMin": 2000, "class": "Other"}},
	   "hints": {"hiway:Profile": {"outSizeMB": {"out": 7}}, "Unknown": null},
	   "inputs": {"in": {"type": "File", "secondaryFiles": ".idx"}, "n": {"type": "string"}},
	   "outputs": {"out": {"type": "File"}}}]}`,
	`{"cwlVersion": "v1.2", "class": "Workflow",
	  "inputs": [{"id": "r", "type": "File[]", "default": [{"class": "File", "location": "/a"}, {"class": "File", "path": "/b"}]}],
	  "steps": [{"id": "a", "scatter": "f", "in": [{"id": "f", "source": "r"}], "out": "o",
	             "run": {"class": "CommandLineTool", "id": "inline", "baseCommand": "x",
	                     "inputs": [{"id": "f", "type": "File", "secondaryFiles": ["^.bai", ".tbi"]}],
	                     "outputs": [{"id": "o", "type": "File[]"}],
	                     "hints": [{"class": "hiway:Profile", "outCount": {"o": 3}, "outSizeMB": {"o": 0}}]}},
	            {"id": "b", "scatter": "f", "in": {"f": {"source": "a/o"}}, "out": ["o"],
	             "run": {"class": "CommandLineTool", "baseCommand": "y",
	                     "inputs": [{"id": "f", "type": "File"}, {"id": "n", "type": "string", "default": "3"}],
	                     "outputs": [{"id": "o", "type": "File"}]}}]}`,
	`{"cwlVersion": "v1.2", "class": "Workflow", "$graph": null}`,
	// Case-insensitive fields.
	tool1(`"requirements": [{"class": "ResourceRequirement", "CORESMIN": 5, "RamMin": 900}],
	       "hints": [{"class": "hiway:Profile", "CPUSECONDS": 4, "OutSizeMB": {"out": 3}, "OUTCOUNT": {"out": 2}}],
	       "inputs": [{"id": "in", "type": {"TYPE": "array", "Items": "File"},
	                   "default": [{"Class": "File", "Location": "/x"}, {"CLASS": "File", "PATH": "/y"}]}],
	       "outputs": [{"id": "out", "type": "File[]"}]`),
	tool1(`"inputs": [{"id": "in", "type": "File", "default": {"claſs": "File", "location": "/u"}}],
	       "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"requirements": [{"class": "ResourceRequirement", "coresMin": 2, "CORESMIN": 6, "coresmin": null}],
	       "hints": {"hiway:Profile": {"outSizeMB": {"out": 2}, "OUTSIZEMB": {"x": 1}, "outCount": null}},
	       "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"requirements": [{"class": "ResourceRequirement", "coresMin": 2, "CoresMin": "6"}],
	       "outputs": [{"id": "out", "type": "File"}]`),
	// Null.
	tool1(`"baseCommand": null, "arguments": [null, "a"], "requirements": null, "hints": [null],
	       "inputs": [{"id": "s", "type": "string", "default": null},
	                  {"id": "l", "type": "string[]", "default": null, "secondaryFiles": null},
	                  {"id": "m", "type": "string[]", "default": [null, "z"]}],
	       "outputs": [{"id": "out", "type": {"type": "array", "items": "File"}}]`),
	tool1(`"outputs": [{"id": "out", "type": {"type": "array", "items": null}}]`),
	`{"cwlVersion": "v1.2", "class": "CommandLineTool", "id": null, "outputs": [{"id": "out", "type": "File"}]}`,
	tool1(`"inputs": [{"id": null, "type": "File"}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": [{"id": "f", "type": "File", "default": null}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": [{"id": "f", "type": null}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": null, "outputs": {"out": null}`),
	`{"cwlVersion": "v1.2", "$graph": [null]}`,
	`{"cwlVersion": null, "class": "CommandLineTool"}`,
	`null`,
	`{"cwlVersion": "v1.2", "$graph": [{"class": "Workflow", "inputs": {"x": {"type": "string", "default": null}},
	  "steps": [{"id": "s", "run": {"id": null, "baseCommand": "go", "inputs": [{"id": "x", "type": "string"}],
	             "outputs": [{"id": "o", "type": "File"}]}, "in": [{"id": "x", "source": "x"}]}]}]}`,
	`{"cwlVersion": "v1.2", "$graph": [{"class": "Workflow",
	  "steps": [{"id": "s", "run": null, "scatter": null, "in": null, "out": null}]}]}`,
	// A map-form requirement's key is its class.
	tool1(`"requirements": {"ResourceRequirement": {"class": "hiway:Profile", "coresMin": 4}},
	       "hints": {"hiway:Profile": {"class": "ResourceRequirement", "cpuSeconds": 8}, "ResourceRequirement": null},
	       "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"requirements": [{"class": 5, "coresMin": "x"}, {"class": "ResourceRequirement"}],
	       "outputs": [{"id": "out", "type": "File"}]`),
	// Number literals.
	tool1(`"hints": [{"class": "hiway:Profile", "outCount": {"out": 2.5}}], "outputs": [{"id": "out", "type": "File[]"}]`),
	tool1(`"hints": [{"class": "hiway:Profile", "outCount": {"out": 1e1}}], "outputs": [{"id": "out", "type": "File[]"}]`),
	tool1(`"hints": [{"class": "hiway:Profile", "outCount": {"out": 2.0}}], "outputs": [{"id": "out", "type": "File[]"}]`),
	tool1(`"hints": [{"class": "hiway:Profile", "outCount": {"out": 9223372036854775807, "x": null}}], "outputs": [{"id": "out", "type": "File[]"}]`),
	tool1(`"hints": [{"class": "hiway:Profile", "outCount": {"out": 9223372036854775808}}], "outputs": [{"id": "out", "type": "File[]"}]`),
	tool1(`"hints": [{"class": "hiway:Profile", "outCount": {"out": -3}, "outSizeMB": {"out": -1e2}}], "outputs": [{"id": "out", "type": "File[]"}]`),
	tool1(`"hints": [{"class": "hiway:Profile", "outSizeMB": {"out": "big"}}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"hints": [{"class": "hiway:Profile", "outSizeMB": [1]}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"requirements": [{"class": "ResourceRequirement", "coresMin": 1e400}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"label": 1e400, "requirements": [{"class": "Unread", "x": 1e400}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"requirements": [{"class": "ResourceRequirement", "coresMin": 1e300, "ramMin": -0}], "outputs": [{"id": "out", "type": "File"}]`),
	// Listings: an array first, then a map.
	tool1(`"inputs": [5], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": {"a": 5}, "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": "a", "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": [{"id": ""}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": {"": {"type": "string", "default": "e"}}, "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"requirements": [5], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"requirements": {"ResourceRequirement": 5}, "outputs": [{"id": "out", "type": "File"}]`),
	// Values the decoder refuses or reads in one way only.
	tool1(`"baseCommand": 5, "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"baseCommand": ["a", 5], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": [{"id": "in", "type": "File", "default": "/raw"}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": [{"id": "in", "type": "File", "default": {"class": "File", "location": 5}}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": [{"id": "in", "type": "File", "default": {"class": "File", "location": null, "path": ""}}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": [{"id": "in", "type": "File[]", "default": {"class": "File", "location": "/a"}}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": [{"id": "in", "type": "string[]", "default": [["a"]]}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": [{"id": "in", "type": ["null", "File"]}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": [{"id": "in", "type": {"type": "array", "items": {"type": "array", "items": "File"}}}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": [{"id": "in", "type": {"type": "array"}}], "outputs": [{"id": "out", "type": "File"}]`),
	tool1(`"inputs": [{"id": "in", "type": {"type": 5, "items": "File"}}], "outputs": [{"id": "out", "type": "File"}]`),
	`{"cwlVersion": "v1.2", "class": "Workflow", "steps": [{"id": "s", "run": 5}]}`,
	`{"cwlVersion": "v1.2", "class": "Workflow", "steps": [{"id": "s"}]}`,
	`{"cwlVersion": "v1.2", "class": "Workflow", "steps": [{"id": "s", "run": "#t", "scatter": ["a", "b"]}]}`,
	`{"cwlVersion": "v1.2", "class": "Workflow", "steps": [{"id": "s", "run": "#t", "in": [{"id": "a", "source": 5}]}]}`,
	`{"cwlVersion": "v1.2", "class": "Workflow", "outputs": [{"id": "o", "outputSource": [5]}], "steps": []}`,
	`{"cwlVersion": "v1.2", "class": "Workflow"} {}`,
	`{"cwlVersion": "v1.2", "class": "Workflow"} ]`,
	`["cwlVersion"]`,
	``,
}

// compareDecoders decodes src with decode and with the reference decoder
// and compiles both documents. The two must agree on whether src is
// accepted and, when it is, on the document and on the tasks, initial
// inputs and edges compiled from it.
func compareDecoders(name, src string) error {
	got, gotErr := decode(name, src)
	want, wantErr := referenceDecode(name, src)
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("decode error: %v; reference error: %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if diff := docDiff(got, want); diff != "" {
		return fmt.Errorf("the documents differ: %s", diff)
	}
	// A workflow input's or step input's default stays a decoded value
	// until compile reads it by its port's type; read it both ways here.
	var defaults []any
	if w := got.workflow; w != nil {
		for _, in := range w.inputs {
			defaults = append(defaults, in.def)
		}
		for _, st := range w.steps {
			for _, b := range st.ins {
				defaults = append(defaults, b.def)
			}
		}
	}
	for _, def := range defaults {
		raw, err := json.Marshal(def)
		if err != nil {
			return err
		}
		if err := compareDefaults(string(raw)); err != nil {
			return err
		}
	}
	gt, gi, ge, gotErr := compile(name, got, Options{})
	wt, wi, we, wantErr := compile(name, want, Options{})
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("build error: %v; reference build error: %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(gt, wt) || !reflect.DeepEqual(gi, wi) || !reflect.DeepEqual(ge, we) {
		return fmt.Errorf("the builds differ")
	}
	return nil
}

// compareDefaults reads src as a default of each port type with
// readDefault and with the reference's defaultValues. A JSON value must be
// accepted alike and read the same.
func compareDefaults(src string) error {
	dec := json.NewDecoder(strings.NewReader(src))
	dec.UseNumber()
	var v any
	if !json.Valid([]byte(src)) || dec.Decode(&v) != nil {
		return nil
	}
	for _, typ := range []portType{{}, {file: true}, {array: true}, {file: true, array: true}} {
		got, gotErr := readDefault(v, typ)
		want, wantErr := defaultValues(json.RawMessage(src), typ)
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !reflect.DeepEqual(got, want) {
			return fmt.Errorf("default %s as %+v: read %q (%v), reference %q (%v)", src, typ, got, gotErr, want, wantErr)
		}
	}
	return nil
}

// docDiff names the first part in which two documents differ, or "".
func docDiff(a, b *document) string {
	if len(a.tools) != len(b.tools) {
		return fmt.Sprintf("%d tools, want %d", len(a.tools), len(b.tools))
	}
	for i := range a.tools {
		if !reflect.DeepEqual(a.tools[i], b.tools[i]) {
			return fmt.Sprintf("tool %d is %+v, want %+v", i, *a.tools[i], *b.tools[i])
		}
	}
	if (a.workflow == nil) != (b.workflow == nil) {
		return fmt.Sprintf("workflow %v, want %v", a.workflow, b.workflow)
	}
	if a.workflow == nil {
		return ""
	}
	wa, wb := a.workflow, b.workflow
	if len(wa.inputs) != len(wb.inputs) || len(wa.steps) != len(wb.steps) {
		return fmt.Sprintf("%d inputs and %d steps, want %d and %d", len(wa.inputs), len(wa.steps), len(wb.inputs), len(wb.steps))
	}
	for i := range wa.inputs {
		if !reflect.DeepEqual(wa.inputs[i], wb.inputs[i]) {
			return fmt.Sprintf("input %d is %+v, want %+v", i, wa.inputs[i], wb.inputs[i])
		}
	}
	for i := range wa.steps {
		if !reflect.DeepEqual(wa.steps[i], wb.steps[i]) {
			return fmt.Sprintf("step %d is %+v, want %+v", i, *wa.steps[i], *wb.steps[i])
		}
	}
	if !reflect.DeepEqual(wa.outputs, wb.outputs) {
		return fmt.Sprintf("outputs %+v, want %+v", wa.outputs, wb.outputs)
	}
	return ""
}

// hasRepeatedKey reports whether an object in src holds two keys that are
// equal up to case, as encoding/json folds them. The parent decoder applied
// such keys to a struct field in document order; decode reads the decoded
// map, in which a repeated key keeps its last value and case variants are
// taken in sorted order (TestRepeatedKeys pins that reading).
func hasRepeatedKey(src string) bool {
	dec := json.NewDecoder(strings.NewReader(src))
	var keys [][]string // per open container: an object's keys, nil for an array
	var isObj []bool
	expectKey := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if d, ok := tok.(json.Delim); ok && (d == '{' || d == '[') {
			keys, isObj = append(keys, nil), append(isObj, d == '{')
			expectKey = d == '{'
			continue
		}
		if k, ok := tok.(string); ok && expectKey {
			top := &keys[len(keys)-1]
			for _, prev := range *top {
				if strings.EqualFold(prev, k) {
					return true
				}
			}
			*top = append(*top, k)
			expectKey = false
			continue
		}
		if _, ok := tok.(json.Delim); ok {
			keys, isObj = keys[:len(keys)-1], isObj[:len(isObj)-1]
		}
		expectKey = len(isObj) > 0 && isObj[len(isObj)-1]
	}
}

// FuzzDecodeMatchesReference requires decode to accept exactly the
// documents the reference decoder accepts and to read them the same way,
// down to the compiled tasks. Documents with a repeated key are skipped:
// they are read differently on purpose (see hasRepeatedKey).
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, src := range decodeSamples {
		f.Add(src)
	}
	for _, c := range parseErrorCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if hasRepeatedKey(src) {
			t.Skip("a repeated key is read differently on purpose")
		}
		if err := compareDecoders("fuzz", src); err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		if err := compareDefaults(src); err != nil {
			t.Fatal(err)
		}
	})
}
