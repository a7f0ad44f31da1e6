package cuneiform

import (
	"strings"
	"testing"

	"hiway/internal/wf"
)

// drainAll completes every ready task with declared outputs until the
// workflow finishes or stalls, returning the executed task names.
func drainAll(t *testing.T, d *Driver, ready []*wf.Task) []string {
	t.Helper()
	var names []string
	queue := ready
	for len(queue) > 0 {
		task := queue[0]
		queue = queue[1:]
		names = append(names, task.Name)
		next, err := d.OnTaskComplete(completeOK(task, nil))
		if err != nil {
			t.Fatal(err)
		}
		queue = append(queue, next...)
	}
	return names
}

func TestNestedFunctionComposition(t *testing.T) {
	d := NewDriver("nest", `
deftask a( out : inp ) in bash *{ x }*
defun twice( v ) { a( inp: a( inp: v ) ) }
defun quad( v ) { twice( v: twice( v: v ) ) }
quad( v: "seed" );`)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	names := drainAll(t, d, ready)
	if len(names) != 4 {
		t.Fatalf("quad should chain 4 tasks, ran %d", len(names))
	}
	if !d.Done() {
		t.Fatal("not done")
	}
}

func TestIfElseChain(t *testing.T) {
	d := NewDriver("chain", `
let empty = nil;
let full = "x";
if empty then "a" else if full then "b" else "c" end end;`)
	if _, err := d.Parse(); err != nil {
		t.Fatal(err)
	}
	if got := d.Outputs(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("outputs = %v, want [b]", got)
	}
}

func TestLetShadowingLaterBindingWins(t *testing.T) {
	d := NewDriver("shadow", `
let x = "first";
let x = "second";
x;`)
	if _, err := d.Parse(); err != nil {
		t.Fatal(err)
	}
	if got := d.Outputs(); len(got) != 1 || got[0] != "second" {
		t.Fatalf("outputs = %v", got)
	}
}

func TestProjectionInsideFunction(t *testing.T) {
	d := NewDriver("projfun", `
deftask split( head tail : inp ) in bash *{ x }*
defun rest( v ) { split( inp: v ).tail }
rest( v: "seed" );`)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	task := ready[0]
	if _, err := d.OnTaskComplete(completeOK(task, nil)); err != nil {
		t.Fatal(err)
	}
	outs := d.Outputs()
	if len(outs) != 1 || outs[0] != task.Declared["tail"][0].Path {
		t.Fatalf("outputs = %v, want the tail output", outs)
	}
}

func TestAggregateConsumesMapResult(t *testing.T) {
	// The aggregate join consumes the full mapped list; it must only
	// spawn once every element exists.
	d := NewDriver("aggmap", `
deftask work( out : inp ) in bash *{ x }*
deftask join( out : <parts> ) in bash *{ y }*
join( parts: work( inp: "a" "b" "c" ) );`)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 3 {
		t.Fatalf("ready = %d", len(ready))
	}
	// Completing only two of the three must not release the join.
	if next, _ := d.OnTaskComplete(completeOK(ready[0], nil)); len(next) != 0 {
		t.Fatalf("join released early: %v", next)
	}
	if next, _ := d.OnTaskComplete(completeOK(ready[1], nil)); len(next) != 0 {
		t.Fatal("join released early")
	}
	next, err := d.OnTaskComplete(completeOK(ready[2], nil))
	if err != nil || len(next) != 1 || next[0].Name != "join" {
		t.Fatalf("join not released: %v %v", next, err)
	}
	if len(next[0].Inputs) != 3 {
		t.Fatalf("join inputs = %v", next[0].Inputs)
	}
}

func TestEmptyStringLiteralIsAValue(t *testing.T) {
	d := NewDriver("empty", `
let x = "";
if x then "nonempty" else "empty" end;`)
	if _, err := d.Parse(); err != nil {
		t.Fatal(err)
	}
	// An empty *string* is still one list element: the condition is a
	// non-empty list.
	if got := d.Outputs(); len(got) != 1 || got[0] != "nonempty" {
		t.Fatalf("outputs = %v", got)
	}
}

func TestCommentsAndWhitespaceEverywhere(t *testing.T) {
	d := NewDriver("comments", `
%% leading comment
deftask a( out : inp ) %% trailing after params
  @cpu 5 %% attr comment
  in bash *{ body %% not a comment inside body }*
%% between statements

a( inp: "s" ); %% after target`)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 1 {
		t.Fatalf("ready = %d", len(ready))
	}
	if !strings.Contains(ready[0].Command, "%% not a comment inside body") {
		t.Fatalf("body mangled: %q", ready[0].Command)
	}
}

func TestTargetsEvaluateInOrder(t *testing.T) {
	d := NewDriver("multi", `
let a = "1";
a;
let b = a "2";
b;`)
	if _, err := d.Parse(); err != nil {
		t.Fatal(err)
	}
	got := d.Outputs()
	want := []string{"1", "1", "2"}
	if len(got) != len(want) {
		t.Fatalf("outputs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outputs = %v, want %v", got, want)
		}
	}
}

// The lexer admits any byte in a string literal, so the bytes an invocation
// key once used as separators can arrive inside values. Applications that
// differ only in where such a byte sits are different tasks.
func TestSeparatorBytesInValuesDoNotMergeInvocations(t *testing.T) {
	for name, body := range map[string]string{
		"one element or two": "merge( parts: \"a\x02b\" );\nmerge( parts: \"a\" \"b\" );",
		"which parameter":    "pair( a: \"p\x00b\x01q\" b: \"r\" );\npair( a: \"p\" b: \"q\x00b\x01r\" );",
	} {
		d := NewDriver("collide", `
deftask merge( out : <parts> ) in bash *{ x }*
deftask pair( out : a b ) in bash *{ x }*
`+body)
		ready, err := d.Parse()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ready) != 2 || ready[0].ID == ready[1].ID {
			t.Fatalf("%s: two distinct applications issued %d task(s)", name, len(ready))
		}
		if strings.Join(ready[0].Inputs, "|") == strings.Join(ready[1].Inputs, "|") {
			t.Fatalf("%s: both tasks got inputs %q", name, ready[0].Inputs)
		}
	}
}
