package cuneiform

import (
	"fmt"
	"strings"
	"testing"

	"hiway/internal/wf"
)

// completeOK fabricates a successful result for t. Aggregate output params
// receive the paths given in agg[param]; plain params produce their
// declared file.
func completeOK(t *wf.Task, agg map[string][]string) *wf.TaskResult {
	outs := make(map[string][]wf.FileInfo)
	for _, p := range t.OutputParams {
		if paths, ok := agg[p]; ok {
			for _, path := range paths {
				outs[p] = append(outs[p], wf.FileInfo{Path: path, SizeMB: 1})
			}
			continue
		}
		outs[p] = append([]wf.FileInfo(nil), t.Declared[p]...)
	}
	return &wf.TaskResult{Task: t, Outputs: outs}
}

func TestLexerBasics(t *testing.T) {
	toks, err := lexAll(`deftask a( x : y ) in bash *{ echo "hi" }* %% comment
let z = "a\n\"b";`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	// deftask a ( x : y ) in bash BODY let z = STRING ; EOF
	want := []tokenKind{tokIdent, tokIdent, tokLParen, tokIdent, tokColon, tokIdent,
		tokRParen, tokIdent, tokIdent, tokBody, tokIdent, tokIdent, tokEq, tokString, tokSemi, tokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if toks[13].text != "a\n\"b" {
		t.Fatalf("string = %q", toks[13].text)
	}
	if toks[9].text != `echo "hi"` {
		t.Fatalf("body = %q", toks[9].text)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `*{ unterminated`, `"bad \q escape"`, "?"} {
		if _, err := lexAll(src); err == nil {
			t.Fatalf("lexAll(%q) should fail", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,                                             // empty
		`deftask t( : x ) in bash *{}*`,                // no outputs
		`deftask t( o o : x ) in bash *{}*`,            // dup name
		`deftask t( o : ~o2 x x ) in bash *{}*`,        // dup param
		`deftask t( ~o : x ) in bash *{}*`,             // value output
		`deftask t( o : x ) @bogus 3 in bash *{}*`,     // bad attr
		`deftask t( o : x ) @size nope 3 in bash *{}*`, // size of unknown output
		`deftask t( o : x ) in bash { }`,               // not a body literal
		`defun f( a a ) { a }`,                         // dup fun param
		`let x = ;`,                                    // missing expr
		`let x "a";`,                                   // missing =
		`"target"`,                                     // missing ;
		`f( x "a" );`,                                  // missing :
		`f( x: "a" x: "b" );`,                          // dup arg
		`if "a" then "b" end;`,                         // missing else
		`let x = f( y: "a" ).;`,                        // missing proj name
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseDeftaskAttrs(t *testing.T) {
	prog, err := Parse(`
deftask align( bam sai : fastq <refs> ~threads ) @cpu 120.5 @threads 4 @mem 2048 @size bam 300 in bash *{
  bowtie2
}*
"x";`)
	if err != nil {
		t.Fatal(err)
	}
	dt := prog.Stmts[0].(*DefTask)
	if dt.TaskName != "align" || dt.Lang != "bash" || dt.Body != "bowtie2" {
		t.Fatalf("deftask = %+v", dt)
	}
	if len(dt.Outputs) != 2 || dt.Outputs[0].Name != "bam" || dt.Outputs[1].Name != "sai" {
		t.Fatalf("outputs = %+v", dt.Outputs)
	}
	if len(dt.Params) != 3 || !dt.Params[1].Aggregate || !dt.Params[2].Value {
		t.Fatalf("params = %+v", dt.Params)
	}
	if dt.Attrs.CPUSeconds != 120.5 || dt.Attrs.Threads != 4 || dt.Attrs.MemMB != 2048 {
		t.Fatalf("attrs = %+v", dt.Attrs)
	}
	if dt.Attrs.OutSizeMB["bam"] != 300 {
		t.Fatalf("size = %+v", dt.Attrs.OutSizeMB)
	}
}

func TestSimpleChain(t *testing.T) {
	d := NewDriver("chain", `
deftask a( out : inp ) @cpu 10 in bash *{ tool-a $inp > $out }*
deftask b( out : inp ) @cpu 20 in bash *{ tool-b $inp > $out }*
b( inp: a( inp: "seed.txt" ) );`)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 1 || ready[0].Name != "a" {
		t.Fatalf("ready = %v", ready)
	}
	ta := ready[0]
	if len(ta.Inputs) != 1 || ta.Inputs[0] != "seed.txt" {
		t.Fatalf("a inputs = %v", ta.Inputs)
	}
	if ta.CPUSeconds != 10 || ta.Threads != 1 {
		t.Fatalf("a profile: %+v", ta)
	}
	if d.Done() {
		t.Fatal("done too early")
	}
	next, err := d.OnTaskComplete(completeOK(ta, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 1 || next[0].Name != "b" {
		t.Fatalf("next = %v", next)
	}
	tb := next[0]
	if len(tb.Inputs) != 1 || tb.Inputs[0] != ta.Declared["out"][0].Path {
		t.Fatalf("b should consume a's output: %v", tb.Inputs)
	}
	next, err = d.OnTaskComplete(completeOK(tb, nil))
	if err != nil || len(next) != 0 {
		t.Fatalf("final: %v %v", next, err)
	}
	if !d.Done() {
		t.Fatal("should be done")
	}
	outs := d.Outputs()
	if len(outs) != 1 || outs[0] != tb.Declared["out"][0].Path {
		t.Fatalf("outputs = %v", outs)
	}
}

func TestImplicitMapCartesian(t *testing.T) {
	d := NewDriver("map", `
deftask align( bam : fastq ref ) in bash *{ x }*
let reads = "a.fq" "b.fq" "c.fq";
let refs = "hg19" "hg38";
align( fastq: reads ref: refs );`)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 6 {
		t.Fatalf("cartesian 3x2 should spawn 6 tasks, got %d", len(ready))
	}
	// Complete all; workflow output should have 6 entries in order.
	for _, task := range ready {
		if _, err := d.OnTaskComplete(completeOK(task, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Done() {
		t.Fatal("should be done")
	}
	if got := d.Outputs(); len(got) != 6 {
		t.Fatalf("outputs = %v", got)
	}
	// First task binds the first element of each list.
	if ready[0].Env["fastq"] != "a.fq" || ready[0].Env["ref"] != "hg19" {
		t.Fatalf("first combo env = %v", ready[0].Env)
	}
	last := ready[5]
	if last.Env["fastq"] != "c.fq" || last.Env["ref"] != "hg38" {
		t.Fatalf("last combo env = %v", last.Env)
	}
}

func TestAggregateParameterGetsWholeList(t *testing.T) {
	d := NewDriver("agg", `
deftask merge( out : <parts> ) in bash *{ cat $parts > $out }*
let parts = "p1" "p2" "p3";
merge( parts: parts );`)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 1 {
		t.Fatalf("aggregate param must not map: %d tasks", len(ready))
	}
	if got := ready[0].Inputs; len(got) != 3 {
		t.Fatalf("inputs = %v", got)
	}
	if ready[0].Env["parts"] != "p1 p2 p3" {
		t.Fatalf("env = %v", ready[0].Env)
	}
}

func TestValueParamNotStaged(t *testing.T) {
	d := NewDriver("val", `
deftask filt( out : inp ~threshold ) in bash *{ x }*
filt( inp: "data.csv" threshold: "0.05" );`)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	task := ready[0]
	if len(task.Inputs) != 1 || task.Inputs[0] != "data.csv" {
		t.Fatalf("value param must not be an input: %v", task.Inputs)
	}
	if task.Env["threshold"] != "0.05" {
		t.Fatalf("env = %v", task.Env)
	}
}

func TestMemoizationDeduplicatesApplications(t *testing.T) {
	d := NewDriver("memo", `
deftask a( out : inp ) in bash *{ x }*
let one = a( inp: "seed" );
let two = a( inp: "seed" );
one two;`)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 1 {
		t.Fatalf("identical applications must be memoized, got %d tasks", len(ready))
	}
	if _, err := d.OnTaskComplete(completeOK(ready[0], nil)); err != nil {
		t.Fatal(err)
	}
	if !d.Done() {
		t.Fatal("should be done")
	}
	if got := d.Outputs(); len(got) != 2 || got[0] != got[1] {
		t.Fatalf("outputs = %v", got)
	}
}

func TestProjectionSelectsOutput(t *testing.T) {
	d := NewDriver("proj", `
deftask align( bam log : inp ) in bash *{ x }*
align( inp: "a" ).log;`)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	task := ready[0]
	if _, err := d.OnTaskComplete(completeOK(task, nil)); err != nil {
		t.Fatal(err)
	}
	outs := d.Outputs()
	if len(outs) != 1 || outs[0] != task.Declared["log"][0].Path {
		t.Fatalf("projection picked %v, want log output", outs)
	}
}

func TestConditionalOnEmptyAggregateOutput(t *testing.T) {
	// check produces an aggregate flag; empty means "converged".
	src := `
deftask check( <flag> : inp ) in bash *{ x }*
if check( inp: "data" ) then "not-converged" else "converged" end;`
	// Case 1: non-empty flag.
	d := NewDriver("cond1", src)
	ready, _ := d.Parse()
	if len(ready) != 1 {
		t.Fatalf("ready = %v", ready)
	}
	if _, err := d.OnTaskComplete(completeOK(ready[0], map[string][]string{"flag": {"more"}})); err != nil {
		t.Fatal(err)
	}
	if got := d.Outputs(); len(got) != 1 || got[0] != "not-converged" {
		t.Fatalf("outputs = %v", got)
	}
	// Case 2: empty flag.
	d2 := NewDriver("cond2", src)
	ready2, _ := d2.Parse()
	if _, err := d2.OnTaskComplete(completeOK(ready2[0], map[string][]string{"flag": {}})); err != nil {
		t.Fatal(err)
	}
	if got := d2.Outputs(); len(got) != 1 || got[0] != "converged" {
		t.Fatalf("outputs = %v", got)
	}
	if !d2.Done() {
		t.Fatal("should be done")
	}
}

// TestIterativeRecursion drives a k-means-style unbounded loop: step
// refines the state, check signals continuation through a non-empty
// aggregate output. The simulated "tool" converges after three refinements.
func TestIterativeRecursion(t *testing.T) {
	d := NewDriver("kmeans", `
deftask step( out : cur ) in bash *{ refine }*
deftask check( <flag> : cur ) in bash *{ converged? }*
defun loop( cur ) {
  if check( cur: cur ) then loop( cur: step( cur: cur ) ) else cur end
}
loop( cur: "init" );`)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	iterations := 0
	var lastState string = "init"
	for !d.Done() {
		if len(ready) == 0 {
			t.Fatalf("deadlock: not done but no ready tasks (pending=%d)", d.Pending())
		}
		var next []*wf.Task
		for _, task := range ready {
			var res *wf.TaskResult
			switch task.Name {
			case "check":
				if iterations < 3 {
					res = completeOK(task, map[string][]string{"flag": {"more"}})
				} else {
					res = completeOK(task, map[string][]string{"flag": {}})
				}
			case "step":
				iterations++
				res = completeOK(task, nil)
				lastState = task.Declared["out"][0].Path
			default:
				t.Fatalf("unexpected task %s", task.Name)
			}
			more, err := d.OnTaskComplete(res)
			if err != nil {
				t.Fatal(err)
			}
			if d.Pending() != pendingScan(d) {
				t.Fatalf("Pending() = %d, %d invocations are unresolved", d.Pending(), pendingScan(d))
			}
			next = append(next, more...)
		}
		ready = next
	}
	if iterations != 3 {
		t.Fatalf("iterations = %d, want 3", iterations)
	}
	outs := d.Outputs()
	if len(outs) != 1 || outs[0] != lastState {
		t.Fatalf("outputs = %v, want final state %s", outs, lastState)
	}
}

func TestMapOverEmptyListYieldsNoTasks(t *testing.T) {
	d := NewDriver("empty", `
deftask a( out : inp ) in bash *{ x }*
a( inp: nil );`)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 0 {
		t.Fatalf("map over nil spawned %d tasks", len(ready))
	}
	if !d.Done() {
		t.Fatal("workflow with no work should be done")
	}
	if got := d.Outputs(); len(got) != 0 {
		t.Fatalf("outputs = %v", got)
	}
}

func TestDefunNamedArgsAndConcat(t *testing.T) {
	d := NewDriver("fun", `
defun pair( a b ) { a b a }
pair( a: "x" b: "y" "z" );`)
	if _, err := d.Parse(); err != nil {
		t.Fatal(err)
	}
	got := d.Outputs()
	want := []string{"x", "y", "z", "x"}
	if len(got) != len(want) {
		t.Fatalf("outputs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outputs = %v, want %v", got, want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	cases := map[string]string{
		"undefined name":     `unknown;`,
		"unknown callee":     `f( x: "a" );`,
		"missing param":      `deftask a( o : x y ) in bash *{}*` + "\n" + `a( x: "1" );`,
		"unknown param":      `deftask a( o : x ) in bash *{}*` + "\n" + `a( x: "1" z: "2" );`,
		"missing fun arg":    `defun f( a b ) { a }` + "\n" + `f( a: "1" );`,
		"extra fun arg":      `defun f( a ) { a }` + "\n" + `f( a: "1" b: "2" );`,
		"project fun":        `defun f( a ) { a }` + "\n" + `f( a: "1" ).out;`,
		"project unknown":    `deftask a( o : x ) in bash *{}*` + "\n" + `a( x: "1" ).nope;`,
		"duplicate deftask":  `deftask a( o : x ) in bash *{}*` + "\n" + `deftask a( o : x ) in bash *{}*` + "\n" + `"t";`,
		"duplicate defun":    `defun f( a ) { a }` + "\n" + `defun f( a ) { a }` + "\n" + `"t";`,
		"task and fun clash": `deftask f( o : x ) in bash *{}*` + "\n" + `defun f( a ) { a }` + "\n" + `"t";`,
		"no target":          `deftask a( o : x ) in bash *{}*`,
	}
	for name, src := range cases {
		d := NewDriver("err", src)
		if _, err := d.Parse(); err == nil {
			t.Errorf("%s: Parse should fail", name)
		}
	}
}

func TestUnguardedRecursionCaught(t *testing.T) {
	d := NewDriver("rec", `
defun f( a ) { f( a: a ) }
f( a: "x" );`)
	_, err := d.Parse()
	if err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Fatalf("expected recursion error, got %v", err)
	}
}

func TestFailedTaskSurfacesError(t *testing.T) {
	d := NewDriver("fail", `
deftask a( out : inp ) in bash *{ x }*
a( inp: "seed" );`)
	ready, _ := d.Parse()
	res := &wf.TaskResult{Task: ready[0], ExitCode: 1, Outputs: map[string][]wf.FileInfo{}}
	if _, err := d.OnTaskComplete(res); err == nil {
		t.Fatal("failed task must produce an error")
	}
}

func TestOnTaskCompleteUnknownTask(t *testing.T) {
	d := NewDriver("x", `"t";`)
	if _, err := d.Parse(); err != nil {
		t.Fatal(err)
	}
	bogus := &wf.Task{ID: 1, Name: "ghost"} // the program issued no task 1
	if _, err := d.OnTaskComplete(&wf.TaskResult{Task: bogus}); err == nil {
		t.Fatal("unknown task must error")
	}
	d2 := NewDriver("y", `"t";`)
	if _, err := d2.OnTaskComplete(&wf.TaskResult{Task: bogus}); err == nil {
		t.Fatal("OnTaskComplete before Parse must error")
	}
}

func TestLargeFanOut(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`deftask a( out : inp ) in bash *{ x }*` + "\n" + `let xs = `)
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "%q ", fmt.Sprintf("f%03d", i))
	}
	sb.WriteString(";\na( inp: xs );")
	d := NewDriver("fan", sb.String())
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 200 {
		t.Fatalf("fan-out = %d, want 200", len(ready))
	}
	for _, task := range ready {
		if _, err := d.OnTaskComplete(completeOK(task, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Done() || len(d.Outputs()) != 200 {
		t.Fatalf("done=%v outputs=%d", d.Done(), len(d.Outputs()))
	}
}

// TestSanitize pins that output paths sit under the workflow name made
// path-safe, in the layout the CWL frontend shares (wf.OutputPath).
func TestSanitize(t *testing.T) {
	d := NewDriver("My Workflow/1.0", `
deftask a( out : inp ) in bash *{ tool-a $inp > $out }*
a( inp: "seed.txt" );`)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 1 {
		t.Fatalf("ready = %v", ready)
	}
	if got, want := ready[0].Env["out"], "My_Workflow_1_0/a_1/out"; got != want {
		t.Fatalf("output path = %q, want %q", got, want)
	}
}
