package cuneiform

import (
	"math/rand"
	"testing"

	"hiway/internal/wf"
)

// Property: the parser terminates with a value or an error — never a
// panic — on arbitrary byte soup and on mutations of a valid program.
func TestParserRobustnessProperty(t *testing.T) {
	valid := `
deftask a( out : inp ) @cpu 5 in bash *{ run $inp > $out }*
defun f( x ) { if x then a( inp: x ) else nil end }
let xs = "p" "q";
f( x: xs );`
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte("abcdefgh ()<>~@:;={}*\"\\\nif then else end deftask defun let nil %%0123456789.")
	for i := 0; i < 300; i++ {
		var src string
		if i%2 == 0 {
			// Pure random soup.
			n := rng.Intn(200)
			b := make([]byte, n)
			for j := range b {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			}
			src = string(b)
		} else {
			// Mutate the valid program: delete or duplicate a chunk.
			b := []byte(valid)
			from := rng.Intn(len(b))
			to := from + rng.Intn(len(b)-from)
			if rng.Intn(2) == 0 {
				src = string(append(append([]byte{}, b[:from]...), b[to:]...))
			} else {
				src = string(b[:to]) + string(b[from:to]) + string(b[to:])
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", src, r)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

// Property: the final workflow outputs are independent of the order in
// which task results arrive — the evaluator's memoization and re-evaluation
// must be confluent.
func TestEvaluationOrderIndependenceProperty(t *testing.T) {
	src := `
deftask a( out : inp ) in bash *{ x }*
deftask join( out : <parts> ) in bash *{ y }*
let xs = "f1" "f2" "f3" "f4";
join( parts: a( inp: xs ) );`
	var reference []string
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		d := NewDriver("order", src)
		ready, err := d.Parse()
		if err != nil {
			t.Fatal(err)
		}
		queue := append([]*wf.Task{}, ready...)
		for len(queue) > 0 {
			i := rng.Intn(len(queue))
			task := queue[i]
			queue = append(queue[:i], queue[i+1:]...)
			next, err := d.OnTaskComplete(completeOK(task, nil))
			if err != nil {
				t.Fatal(err)
			}
			queue = append(queue, next...)
		}
		if !d.Done() {
			t.Fatalf("trial %d not done", trial)
		}
		// The driver numbers its tasks in discovery order, which no
		// completion order changes here, so even the paths agree.
		outs := d.Outputs()
		if trial == 0 {
			reference = outs
			continue
		}
		if len(outs) != len(reference) {
			t.Fatalf("trial %d outputs = %v, want %v", trial, outs, reference)
		}
		for i := range outs {
			if outs[i] != reference[i] {
				t.Fatalf("trial %d outputs differ at %d: %v vs %v", trial, i, outs, reference)
			}
		}
	}
}
