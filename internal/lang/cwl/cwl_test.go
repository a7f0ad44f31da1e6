package cwl

import (
	"strings"
	"testing"

	"hiway/internal/wf"
)

// sampleCWL is a $graph bundle exercising the whole supported subset:
// scatter over a workflow input array, a gather step consuming the
// scattered outputs, scatter over a statically-sized array output,
// secondaryFiles, string inputs, multi-source arrays, and resource hints.
const sampleCWL = `{
  "cwlVersion": "v1.2",
  "$graph": [
    {
      "class": "Workflow",
      "id": "main",
      "inputs": [
        {"id": "reads", "type": "File[]",
         "default": [{"class": "File", "location": "/data/r1.fq"},
                     {"class": "File", "location": "/data/r2.fq"}]},
        {"id": "genome", "type": "File",
         "default": {"class": "File", "location": "/ref/genome.fa"}},
        {"id": "label", "type": "string", "default": "batch7"}
      ],
      "outputs": [
        {"id": "result", "type": "File", "outputSource": "merge/merged"}
      ],
      "steps": [
        {"id": "align", "run": "#aligner", "scatter": "fq",
         "in": [{"id": "fq", "source": "reads"},
                {"id": "ref", "source": "genome"},
                {"id": "tag", "source": "label"}],
         "out": ["bam"]},
        {"id": "split", "run": "#splitter",
         "in": [{"id": "bams", "source": "align/bam"}],
         "out": ["parts"]},
        {"id": "call", "run": "#caller", "scatter": "part",
         "in": [{"id": "part", "source": "split/parts"}],
         "out": ["vcf"]},
        {"id": "merge", "run": "#merger",
         "in": [{"id": "pieces", "source": ["call/vcf", "align/bam"]}],
         "out": ["merged"]}
      ]
    },
    {
      "class": "CommandLineTool",
      "id": "aligner",
      "baseCommand": ["bwa", "mem"],
      "requirements": [{"class": "ResourceRequirement", "coresMin": 8, "ramMin": 6500}],
      "hints": [{"class": "hiway:Profile", "cpuSeconds": 3000, "outSizeMB": {"bam": 700}}],
      "inputs": [
        {"id": "fq", "type": "File"},
        {"id": "ref", "type": "File", "secondaryFiles": [".idx", "^.dict"]},
        {"id": "tag", "type": "string"}
      ],
      "outputs": [{"id": "bam", "type": "File"}]
    },
    {
      "class": "CommandLineTool",
      "id": "splitter",
      "baseCommand": "split",
      "hints": [{"class": "hiway:Profile", "outCount": {"parts": 3}}],
      "inputs": [{"id": "bams", "type": "File[]"}],
      "outputs": [{"id": "parts", "type": "File[]"}]
    },
    {
      "class": "CommandLineTool",
      "id": "caller",
      "baseCommand": "call",
      "inputs": [{"id": "part", "type": "File"}],
      "outputs": [{"id": "vcf", "type": "File"}]
    },
    {
      "class": "CommandLineTool",
      "id": "merger",
      "baseCommand": "merge",
      "inputs": [{"id": "pieces", "type": "File[]"}],
      "outputs": [{"id": "merged", "type": "File"}]
    }
  ]
}`

func parseAll(t *testing.T, name, src string, opts Options) []*wf.Task {
	t.Helper()
	tasks, _, _, err := build(name, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

func TestParseSampleWorkflow(t *testing.T) {
	tasks := parseAll(t, "wgs", sampleCWL, Options{})
	// 2 aligners (scatter over reads) + 1 splitter + 3 callers (scatter
	// over the declared 3-part array) + 1 merger.
	if len(tasks) != 7 {
		t.Fatalf("got %d tasks, want 7", len(tasks))
	}
	byName := map[string][]*wf.Task{}
	for _, task := range tasks {
		byName[task.Name] = append(byName[task.Name], task)
	}
	if len(byName["aligner"]) != 2 || len(byName["caller"]) != 3 {
		t.Fatalf("scatter widths: aligners=%d callers=%d", len(byName["aligner"]), len(byName["caller"]))
	}

	al := byName["aligner"][0]
	if al.Command != "bwa mem" {
		t.Errorf("command = %q", al.Command)
	}
	if al.Threads != 8 || al.MemMB != 6500 || al.CPUSeconds != 3000 {
		t.Errorf("resources = %d threads, %d MB, %.0f s", al.Threads, al.MemMB, al.CPUSeconds)
	}
	// Scatter selects one read; the reference expands its secondaryFiles
	// (".idx" appends, "^.dict" swaps the extension).
	wantIn := []string{"/data/r1.fq", "/ref/genome.fa", "/ref/genome.fa.idx", "/ref/genome.dict"}
	if len(al.Inputs) != len(wantIn) {
		t.Fatalf("aligner inputs = %v", al.Inputs)
	}
	for i, p := range wantIn {
		if al.Inputs[i] != p {
			t.Errorf("aligner input[%d] = %q, want %q", i, al.Inputs[i], p)
		}
	}
	if al.Env["tag"] != "batch7" {
		t.Errorf("string input not threaded: env=%q", al.Env["tag"])
	}
	if got := al.Declared["bam"]; len(got) != 1 || got[0].SizeMB != 700 {
		t.Errorf("aligner output = %+v", got)
	}

	// The splitter consumes both gathered aligner outputs and declares a
	// 3-wide array output, which the callers scatter over.
	sp := byName["splitter"][0]
	if len(sp.Inputs) != 2 {
		t.Fatalf("splitter inputs = %v", sp.Inputs)
	}
	if len(sp.Declared["parts"]) != 3 {
		t.Fatalf("splitter parts = %v", sp.Declared["parts"])
	}
	for i, c := range byName["caller"] {
		if len(c.Inputs) != 1 || c.Inputs[0] != sp.Declared["parts"][i].Path {
			t.Errorf("caller %d consumes %v, want %q", i, c.Inputs, sp.Declared["parts"][i].Path)
		}
	}

	// The merger's multi-source input gathers 3 vcfs + 2 bams.
	mg := byName["merger"][0]
	if len(mg.Inputs) != 5 {
		t.Fatalf("merger inputs = %v", mg.Inputs)
	}

	// The whole thing must form a valid DAG with the aligners ready first.
	d := NewDriver("wgs", sampleCWL, Options{})
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 2 || ready[0].Name != "aligner" {
		t.Fatalf("ready = %v", ready)
	}
}

func TestBindingsOverrideDefaults(t *testing.T) {
	tasks := parseAll(t, "wgs", sampleCWL, Options{Inputs: map[string]string{"genome": "/alt/g.fa"}})
	for _, task := range tasks {
		if task.Name != "aligner" {
			continue
		}
		if task.Inputs[1] != "/alt/g.fa" {
			t.Fatalf("bind ignored: %v", task.Inputs)
		}
	}
}

func TestBareCommandLineTool(t *testing.T) {
	src := `{
	  "cwlVersion": "v1.2", "class": "CommandLineTool", "id": "solo",
	  "baseCommand": "run",
	  "inputs": [{"id": "in", "type": "File",
	              "default": {"class": "File", "location": "/data/in.dat"}}],
	  "outputs": [{"id": "out", "type": "File"}]
	}`
	tasks := parseAll(t, "one", src, Options{})
	if len(tasks) != 1 || tasks[0].Name != "solo" || tasks[0].Inputs[0] != "/data/in.dat" {
		t.Fatalf("tasks = %+v", tasks)
	}
}

func TestMapFormListings(t *testing.T) {
	src := `{
	  "cwlVersion": "v1.2",
	  "$graph": [
	    {"class": "Workflow", "id": "m",
	     "inputs": {"x": {"type": "File", "default": {"class": "File", "location": "/d/x"}}},
	     "outputs": {},
	     "steps": {"s": {"run": "#t", "in": {"in": {"source": "x"}}, "out": ["out"]}}},
	    {"class": "CommandLineTool", "id": "t", "baseCommand": "go",
	     "inputs": {"in": {"type": "File"}},
	     "outputs": {"out": {"type": "File"}}}
	  ]
	}`
	tasks := parseAll(t, "m", src, Options{})
	if len(tasks) != 1 || tasks[0].Inputs[0] != "/d/x" {
		t.Fatalf("map-form parse: %+v", tasks)
	}
}

// doc builds a one-workflow document around the given steps/tools JSON
// fragments, for the error-case table below.
func doc(steps, tools string) string {
	return `{"cwlVersion": "v1.2", "$graph": [
	  {"class": "Workflow", "id": "w",
	   "inputs": [{"id": "seed", "type": "File",
	               "default": {"class": "File", "location": "/d/seed"}},
	              {"id": "list", "type": "File[]", "default": []}],
	   "outputs": [],
	   "steps": [` + steps + `]},
	  {"class": "CommandLineTool", "id": "t", "baseCommand": "go",
	   "inputs": [{"id": "in", "type": "File"}],
	   "outputs": [{"id": "out", "type": "File"}]}` + tools + `]}`
}

// parseErrorCases are documents build must refuse, each with a substring
// of its error.
var parseErrorCases = []struct {
	name string
	src  string
	want string // substring of the error
}{
	{
		"empty scatter list",
		doc(`{"id": "s", "run": "#t", "scatter": [],
			      "in": [{"id": "in", "source": "seed"}], "out": ["out"]}`, ""),
		"empty scatter",
	},
	{
		"scatter over empty input",
		doc(`{"id": "s", "run": "#t", "scatter": "in",
			      "in": [{"id": "in", "source": "list"}], "out": ["out"]}`, ""),
		"scatters over empty input",
	},
	{
		"cyclic steps",
		doc(`{"id": "a", "run": "#t", "in": [{"id": "in", "source": "b/out"}], "out": ["out"]},
			     {"id": "b", "run": "#t", "in": [{"id": "in", "source": "a/out"}], "out": ["out"]}`, ""),
		"cyclic step references",
	},
	{
		"duplicate step ids",
		doc(`{"id": "s", "run": "#t", "in": [{"id": "in", "source": "seed"}], "out": ["out"]},
			     {"id": "s", "run": "#t", "in": [{"id": "in", "source": "seed"}], "out": ["out"]}`, ""),
		"duplicate step id",
	},
	{
		"unknown tool",
		doc(`{"id": "s", "run": "#nope", "in": [{"id": "in", "source": "seed"}], "out": ["out"]}`, ""),
		"unknown tool",
	},
	{
		"unknown source",
		doc(`{"id": "s", "run": "#t", "in": [{"id": "in", "source": "ghost"}], "out": ["out"]}`, ""),
		"unknown source",
	},
	{
		"unbound tool input",
		doc(`{"id": "s", "run": "#t", "in": [], "out": ["out"]}`, ""),
		"does not bind tool input",
	},
	{
		"missing workflow input value",
		`{"cwlVersion": "v1.2", "$graph": [
			  {"class": "Workflow", "id": "w",
			   "inputs": [{"id": "seed", "type": "File"}], "outputs": [],
			   "steps": [{"id": "s", "run": "#t", "in": [{"id": "in", "source": "seed"}], "out": ["out"]}]},
			  {"class": "CommandLineTool", "id": "t", "baseCommand": "go",
			   "inputs": [{"id": "in", "type": "File"}],
			   "outputs": [{"id": "out", "type": "File"}]}]}`,
		"no default and no binding",
	},
	{
		"missing cwlVersion",
		`{"class": "CommandLineTool", "id": "t", "baseCommand": "go",
			  "inputs": [], "outputs": [{"id": "out", "type": "File"}]}`,
		"missing cwlVersion",
	},
	{
		"unsupported type",
		doc(`{"id": "s", "run": "#u", "in": [{"id": "in", "source": "seed"}], "out": ["out"]}`,
			`, {"class": "CommandLineTool", "id": "u", "baseCommand": "go",
				    "inputs": [{"id": "in", "type": "Directory"}],
				    "outputs": [{"id": "out", "type": "File"}]}`),
		"unsupported type",
	},
	{
		"tool without outputs",
		doc(`{"id": "s", "run": "#u", "in": [{"id": "in", "source": "seed"}], "out": []}`,
			`, {"class": "CommandLineTool", "id": "u", "baseCommand": "go",
				    "inputs": [{"id": "in", "type": "File"}], "outputs": []}`),
		"declares no outputs",
	},
	{
		"scalar port fed an array",
		doc(`{"id": "a", "run": "#t", "scatter": "in",
			      "in": [{"id": "in", "source": "seed"}], "out": ["out"]},
			     {"id": "b", "run": "#t", "in": [{"id": "in", "source": ["seed", "seed"]}], "out": ["out"]}`, ""),
		"is not an array but receives 2 values",
	},
	{
		"nested array type",
		doc(`{"id": "s", "run": "#u", "in": [{"id": "in", "source": "seed"}], "out": ["out"]}`,
			`, {"class": "CommandLineTool", "id": "u", "baseCommand": "go",
				    "inputs": [{"id": "in", "type": {"type": "array", "items": "File[]"}}],
				    "outputs": [{"id": "out", "type": "File"}]}`),
		"nested array types",
	},
	{
		"non-array type object",
		doc(`{"id": "s", "run": "#u", "in": [{"id": "in", "source": "seed"}], "out": ["out"]}`,
			`, {"class": "CommandLineTool", "id": "u", "baseCommand": "go",
				    "inputs": [{"id": "in", "type": {"type": "record"}}],
				    "outputs": [{"id": "out", "type": "File"}]}`),
		"unsupported type",
	},
	{
		"unsupported array items",
		doc(`{"id": "s", "run": "#u", "in": [{"id": "in", "source": "seed"}], "out": ["out"]}`,
			`, {"class": "CommandLineTool", "id": "u", "baseCommand": "go",
				    "inputs": [{"id": "in", "type": {"type": "array", "items": "int"}}],
				    "outputs": [{"id": "out", "type": "File"}]}`),
		"array items",
	},
	{
		"requirements neither array nor map",
		doc(`{"id": "s", "run": "#u", "in": [{"id": "in", "source": "seed"}], "out": ["out"]}`,
			`, {"class": "CommandLineTool", "id": "u", "baseCommand": "go",
				    "requirements": 5,
				    "inputs": [{"id": "in", "type": "File"}],
				    "outputs": [{"id": "out", "type": "File"}]}`),
		"requirements must be an array or a map",
	},
	{
		"File default is not a File object",
		doc(`{"id": "s", "run": "#u", "in": [{"id": "in", "default": "/d/raw"}], "out": ["out"]}`,
			`, {"class": "CommandLineTool", "id": "u", "baseCommand": "go",
				    "inputs": [{"id": "in", "type": "File"}],
				    "outputs": [{"id": "out", "type": "File"}]}`),
		"want a File object",
	},
	{
		"File default without a location",
		doc(`{"id": "s", "run": "#u", "in": [{"id": "in", "default": {"class": "File"}}], "out": ["out"]}`,
			`, {"class": "CommandLineTool", "id": "u", "baseCommand": "go",
				    "inputs": [{"id": "in", "type": "File"}],
				    "outputs": [{"id": "out", "type": "File"}]}`),
		"File default has no location",
	},
	{
		"string default is not a string",
		doc(`{"id": "s", "run": "#u",
			      "in": [{"id": "in", "source": "seed"}, {"id": "n", "default": 5}], "out": ["out"]}`,
			`, {"class": "CommandLineTool", "id": "u", "baseCommand": "go",
				    "inputs": [{"id": "in", "type": "File"}, {"id": "n", "type": "string"}],
				    "outputs": [{"id": "out", "type": "File"}]}`),
		"want a string",
	},
	{
		"array default is not an array",
		doc(`{"id": "s", "run": "#u", "in": [{"id": "xs", "default": "/d/one"}], "out": ["out"]}`,
			`, {"class": "CommandLineTool", "id": "u", "baseCommand": "go",
				    "inputs": [{"id": "xs", "type": "File[]"}],
				    "outputs": [{"id": "out", "type": "File"}]}`),
		"want an array",
	},
}

func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		t.Run(c.name, func(t *testing.T) {
			_, _, _, err := build("w", c.src, Options{})
			if err == nil {
				t.Fatalf("accepted invalid document")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestResourceHintClamping(t *testing.T) {
	src := `{
	  "cwlVersion": "v1.2", "class": "CommandLineTool", "id": "big",
	  "baseCommand": "go",
	  "requirements": [{"class": "ResourceRequirement", "coresMin": 4096, "ramMin": 9000000}],
	  "hints": [{"class": "hiway:Profile", "outSizeMB": {"out": -5}, "outCount": {"out": 1000000}}],
	  "inputs": [{"id": "in", "type": "File",
	              "default": {"class": "File", "location": "/d/in"}}],
	  "outputs": [{"id": "out", "type": "File[]"}]
	}`
	tasks := parseAll(t, "clamp", src, Options{})
	task := tasks[0]
	if task.Threads != maxThreads {
		t.Errorf("threads = %d, want clamped to %d", task.Threads, maxThreads)
	}
	if task.MemMB != maxMemMB {
		t.Errorf("memMB = %d, want clamped to %d", task.MemMB, maxMemMB)
	}
	if n := len(task.Declared["out"]); n != maxOutCount {
		t.Errorf("outCount = %d, want clamped to %d", n, maxOutCount)
	}
	if task.Declared["out"][0].SizeMB != 1 {
		t.Errorf("non-positive outSizeMB should default to 1, got %v", task.Declared["out"][0].SizeMB)
	}
}

func TestSecondaryPathPatterns(t *testing.T) {
	cases := []struct{ primary, pattern, want string }{
		{"/d/x.bam", ".bai", "/d/x.bam.bai"},
		{"/d/x.bam", "^.bai", "/d/x.bai"},
		{"/d/x.tar.gz", "^^.list", "/d/x.list"},
		{"/d.ir/noext", ".idx", "/d.ir/noext.idx"},
		{"/d.ir/noext", "^.idx", "/d.ir/noext.idx"},
	}
	for _, c := range cases {
		if got := secondaryPath(c.primary, c.pattern); got != c.want {
			t.Errorf("secondaryPath(%q, %q) = %q, want %q", c.primary, c.pattern, got, c.want)
		}
	}
}

// TestDeterministicTaskOrder pins the ID-assignment discipline the
// differential portability check depends on: steps materialize in
// dependency waves, document order within a wave, scatter elements in
// list order.
func TestDeterministicTaskOrder(t *testing.T) {
	a := parseAll(t, "wgs", sampleCWL, Options{})
	b := parseAll(t, "wgs", sampleCWL, Options{})
	if len(a) != len(b) {
		t.Fatal("nondeterministic task count")
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Env["fq"] != b[i].Env["fq"] {
			t.Fatalf("task %d differs across parses: %q vs %q", i, a[i].Name, b[i].Name)
		}
	}
}

// TestObjectTypesAndMapRequirements exercises the long-form spellings the
// other tests skip: object-form array types, map-form requirements/hints,
// and workflow-name sanitization in synthesized paths.
func TestObjectTypesAndMapRequirements(t *testing.T) {
	src := `{"cwlVersion": "v1.2",
	  "class": "CommandLineTool", "id": "pack", "baseCommand": ["tar", "cf"],
	  "requirements": {"ResourceRequirement": {"coresMin": 3, "ramMin": 2000}},
	  "hints": {"hiway:Profile": {"cpuSeconds": 120, "outSizeMB": {"out": 7}}},
	  "inputs": [{"id": "xs", "type": {"type": "array", "items": "File"},
	              "default": [{"class": "File", "location": "/d/a"},
	                          {"class": "File", "path": "/d/b"}]}],
	  "outputs": [{"id": "out", "type": "File"}]}`
	d := NewDriver("my wf!", src, Options{})
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 1 {
		t.Fatalf("ready = %d", len(ready))
	}
	task := ready[0]
	if task.Threads != 3 || task.MemMB != 2000 || task.CPUSeconds != 120 {
		t.Fatalf("resources: threads=%d mem=%d cpu=%g", task.Threads, task.MemMB, task.CPUSeconds)
	}
	if got := task.Inputs; len(got) != 2 || got[0] != "/d/a" || got[1] != "/d/b" {
		t.Fatalf("inputs = %v", got)
	}
	out := task.Declared["out"]
	if len(out) != 1 || out[0].SizeMB != 7 {
		t.Fatalf("declared = %v", out)
	}
	// The workflow name is sanitized into the synthesized output path.
	if !strings.HasPrefix(out[0].Path, "my_wf_/") {
		t.Fatalf("path = %q", out[0].Path)
	}
}

// TestRepeatedKeys pins how decode reads an object that repeats a key: from
// the decoded map, where the last repeat wins and case variants of a field
// apply in sorted key order. The reference applied repeats to a struct
// field in document order, so for File objects and type objects it could
// read otherwise; requirement objects, which it re-encoded from a map, it
// read the same way.
func TestRepeatedKeys(t *testing.T) {
	tool := func(def, reqs string) string {
		return `{"cwlVersion": "v1.2", "class": "CommandLineTool", "id": "t",
		  "requirements": [` + reqs + `],
		  "inputs": [{"id": "in", "type": "File", "default": ` + def + `}],
		  "outputs": [{"id": "out", "type": "File"}]}`
	}
	// "Location" sorts before "location", so "location" is read last.
	src := tool(`{"class": "File", "location": "/b", "Location": "/a"}`, "")
	tasks, _, _, err := build("r", src, Options{})
	if err != nil || tasks[0].Inputs[0] != "/b" {
		t.Fatalf("case variants: %v, %v", tasks, err)
	}
	if ref, _, _, err := referenceBuild("r", src, Options{}); err != nil || ref[0].Inputs[0] != "/a" {
		t.Fatalf("the reference read case variants in document order: %v, %v", ref, err)
	}
	// A repeated key keeps its last value, null included.
	src = tool(`{"class": "File", "location": "/a", "location": null}`, "")
	if _, _, _, err := build("r", src, Options{}); err == nil || !strings.Contains(err.Error(), "no location") {
		t.Fatalf("a null repeat: %v", err)
	}
	if _, _, _, err := referenceBuild("r", src, Options{}); err != nil {
		t.Fatalf("the reference kept the earlier value: %v", err)
	}
	// Requirements read the same both ways: "CORESMIN" before "coresMin".
	src = tool(`{"class": "File", "location": "/a"}`, `{"class": "ResourceRequirement", "coresMin": 2, "CORESMIN": 6}`)
	tasks, _, _, err = build("r", src, Options{})
	ref, _, _, refErr := referenceBuild("r", src, Options{})
	if err != nil || refErr != nil || tasks[0].Threads != 2 || ref[0].Threads != 2 {
		t.Fatalf("repeated requirement fields: %v (%v), reference %v (%v)", tasks, err, ref, refErr)
	}
}

// TestBareToolIDAnyCharacter: a bare CommandLineTool whose id holds a
// control character runs. The one-step workflow around it used to be
// rendered as JSON text with Go quoting, which writes such a character as
// an escape JSON does not have, and the document was refused.
func TestBareToolIDAnyCharacter(t *testing.T) {
	src := `{"cwlVersion": "v1.2", "class": "CommandLineTool", "id": "a\u0001b\u007f",
	  "outputs": [{"id": "out", "type": "File"}]}`
	tasks, _, _, err := build("bare", src, Options{})
	if err != nil || len(tasks) != 1 || tasks[0].Name != "a\x01b\x7f" {
		t.Fatalf("tasks %v, error %v", tasks, err)
	}
}
