package cuneiform

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hiway/internal/wf"
)

// diffPrelude declares what the random programs apply: one- and
// two-parameter maps, aggregate parameters and outputs, a second output to
// project, a function that drops an argument (whose tasks must run all the
// same), and a recursion guarded by a task result.
const diffPrelude = `
deftask one( out : a ) in bash *{ x }*
deftask two( out : a b ) in bash *{ x }*
deftask agg( out : <xs> ) in bash *{ x }*
deftask mix( out : a <xs> ~v ) in bash *{ x }*
deftask scat( <outs> : a ) in bash *{ x }*
deftask chk( <flag> : a ) in bash *{ x }*
deftask duo( x y : a ) in bash *{ x }*
defun pass( a b ) { a }
defun wrap( a ) { one( a: a ) }
defun loop( cur ) { if chk( a: cur ) then loop( cur: one( a: cur ) ) else cur end }
`

// randomProgram renders a seeded program of lets (over four names, so later
// ones shadow earlier ones) and targets. String literals come from a pool of
// four, so separate statements often apply a task to the same arguments.
func randomProgram(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString(diffPrelude)
	var lets []string
	var gen func(depth int) string
	gen = func(depth int) string {
		lit := func() string {
			parts := make([]string, 1+rng.Intn(2))
			for i := range parts {
				parts[i] = fmt.Sprintf("%q", string(rune('a'+rng.Intn(4))))
			}
			return strings.Join(parts, " ")
		}
		if depth == 0 || rng.Intn(5) == 0 {
			switch {
			case len(lets) > 0 && rng.Intn(2) == 0:
				return lets[rng.Intn(len(lets))]
			case rng.Intn(10) == 0:
				return "nil"
			default:
				return lit()
			}
		}
		sub := func() string { return gen(depth - 1) }
		switch rng.Intn(13) {
		case 0:
			return "( " + sub() + " " + sub() + " )"
		case 1, 2:
			return "one( a: " + sub() + " )"
		case 3:
			return "two( a: " + sub() + " b: " + sub() + " )"
		case 4:
			return "agg( xs: " + sub() + " )"
		case 5:
			return "mix( a: " + sub() + " xs: " + sub() + " v: " + lit() + " )"
		case 6:
			return "scat( a: " + sub() + " )"
		case 7:
			return "duo( a: " + sub() + " )." + []string{"x", "y"}[rng.Intn(2)]
		case 8:
			return "pass( a: " + sub() + " b: " + sub() + " )"
		case 9:
			return "wrap( a: " + sub() + " )"
		case 10:
			return "loop( cur: " + sub() + " )"
		default:
			return "if " + sub() + " then " + sub() + " else " + sub() + " end"
		}
	}
	for n := 3 + rng.Intn(8); n > 0; n-- {
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&sb, "%s;\n", gen(3))
			continue
		}
		name := fmt.Sprintf("v%d", rng.Intn(4))
		fmt.Fprintf(&sb, "let %s = %s;\n", name, gen(3))
		if !slices.Contains(lets, name) {
			lets = append(lets, name)
		}
	}
	fmt.Fprintf(&sb, "%s;\n", gen(3))
	return sb.String()
}

// pendingScan counts unresolved invocations the slow way.
func pendingScan(d *Driver) int {
	n := 0
	for _, inv := range d.invocations {
		if !inv.resolved {
			n++
		}
	}
	return n
}

// TestDifferentialAgainstFullPass drives the production driver and the
// full-pass reference in lockstep over random programs and random completion
// orders. Both receive the same output paths for the task issued k-th, so
// everything downstream — which tasks are issued, in which order, on which
// inputs — must agree exactly, as must Done() and Outputs() after every step.
func TestDifferentialAgainstFullPass(t *testing.T) {
	const maxTasks = 300 // a cartesian product of scatters can explode; the prefix is compared all the same
	for seed := int64(0); seed < 150; seed++ {
		src := randomProgram(rand.New(rand.NewSource(seed)))
		for order := int64(0); order < 3; order++ {
			rng := rand.New(rand.NewSource(seed*7 + order))
			prod, ref := NewDriver("diff", src), newRefDriver("diff", src)
			var issued [][2]*wf.Task // [production, reference], by issue ordinal
			var open []int
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d order %d: %s\n%s", seed, order, fmt.Sprintf(format, args...), src)
			}
			step := func(pt []*wf.Task, perr error, rt []*wf.Task, rerr error) {
				t.Helper()
				if perr != nil || rerr != nil {
					fail("errors: production %v, reference %v", perr, rerr)
				}
				if len(pt) != len(rt) {
					fail("issued %d tasks, reference issued %d", len(pt), len(rt))
				}
				for i := range pt {
					// Each driver numbers its own tasks, so the k-th issued task
					// carries the same ID, and the same declared paths, in both.
					if pt[i].ID != rt[i].ID || pt[i].Name != rt[i].Name || !slices.Equal(pt[i].Inputs, rt[i].Inputs) ||
						!maps.Equal(pt[i].Env, rt[i].Env) {
						fail("task #%d: %s %v %v, reference %s %v %v", len(issued),
							pt[i], pt[i].Inputs, pt[i].Env, rt[i], rt[i].Inputs, rt[i].Env)
					}
					open = append(open, len(issued))
					issued = append(issued, [2]*wf.Task{pt[i], rt[i]})
				}
				if prod.Done() != ref.Done() {
					fail("Done() = %v, reference %v", prod.Done(), ref.Done())
				}
				if po, ro := prod.Outputs(), ref.Outputs(); !slices.Equal(po, ro) {
					fail("Outputs() = %v, reference %v", po, ro)
				}
				if prod.Pending() != pendingScan(prod) || prod.Pending() != ref.Pending() {
					fail("Pending() = %d, scan %d, reference %d", prod.Pending(), pendingScan(prod), ref.Pending())
				}
			}
			pt, perr := prod.Parse()
			rt, rerr := ref.Parse()
			step(pt, perr, rt, rerr)
			checks := 0
			for len(open) > 0 && len(issued) < maxTasks {
				at := rng.Intn(len(open))
				k := open[at]
				open = slices.Delete(open, at, at+1)
				// A plain output is one file; an aggregate one holds 0–3, except
				// that chk lets loops go round five times per run and then
				// reports convergence.
				outs := map[string][]string{}
				for _, p := range issued[k][0].OutputParams {
					n := rng.Intn(4)
					switch {
					case issued[k][0].Declared[p] != nil:
						n = 1
					case p == "flag" && checks < 5:
						checks, n = checks+1, 1
					case p == "flag":
						n = 0
					}
					outs[p] = []string{}
					for j := 0; j < n; j++ {
						outs[p] = append(outs[p], fmt.Sprintf("t%d.%s.%d", k, p, j))
					}
				}
				pt, perr := prod.OnTaskComplete(completeOK(issued[k][0], outs))
				rt, rerr := ref.OnTaskComplete(completeOK(issued[k][1], outs))
				step(pt, perr, rt, rerr)
			}
			if len(open) == 0 && !prod.Done() {
				fail("every task completed but not Done()")
			}
		}
	}
}
