package hiway_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fusableProducts lists, in non-test code under internal/ and cmd/, every
// floating-point product the compiler may fuse with an add or subtract into
// one fused multiply-add, which rounds once where amd64 rounds twice: a `*`
// that is an operand of `+`, `-`, `+=` or `-=`, or the whole value of a
// local that later is such an operand, with no explicit conversion between
// them. Only a conversion, float64(x*y), forbids the fusion (the Go spec,
// "Floating-point operators"). amd64 never fuses, so a tree this rule passes
// computes on arm64, ppc64le, s390x and riscv64 what it computes on amd64.
// The rule is syntactic: a product inside an inlined call escapes it, so CI
// cross-compiles the same packages and greps the listings for fused
// instructions (DESIGN.md, "Same seed, same bytes on every architecture").
// TestReach runs it over its type-checked packages.
func fusableProducts(fset *token.FileSet, pkgs map[string]*goPackage) []token.Position {
	var found []token.Position
	seen := map[token.Pos]bool{}
	for _, dir := range sortedKeys(pkgs) {
		if d := filepath.ToSlash(dir); !strings.HasPrefix(d, "internal/") && !strings.HasPrefix(d, "cmd/") {
			continue
		}
		p := pkgs[dir]
		float := func(e ast.Expr) bool {
			tv := p.info.Types[e]
			b, ok := tv.Type.(*types.Basic)
			return ok && tv.Value == nil && b.Info()&types.IsFloat != 0
		}
		product := func(e ast.Expr) *ast.BinaryExpr {
			e = bare(e)
			if m, ok := e.(*ast.BinaryExpr); ok && m.Op == token.MUL && float(m) {
				return m
			}
			return nil
		}
		report := func(m *ast.BinaryExpr) {
			if !seen[m.Pos()] {
				seen[m.Pos()] = true
				found = append(found, fset.Position(m.Pos()))
			}
		}
		for _, f := range p.files {
			// held maps each local whose whole value is a product to it.
			held := map[types.Object]*ast.BinaryExpr{}
			hold := func(id *ast.Ident, rhs ast.Expr) {
				obj := p.info.Defs[id]
				if obj == nil {
					obj = p.info.Uses[id]
				}
				if v, ok := obj.(*types.Var); ok && v.Parent() != v.Pkg().Scope() {
					if m := product(rhs); m != nil {
						held[v] = m
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if (n.Tok == token.DEFINE || n.Tok == token.ASSIGN) && len(n.Lhs) == len(n.Rhs) {
						for i, lhs := range n.Lhs {
							if id, ok := lhs.(*ast.Ident); ok {
								hold(id, n.Rhs[i])
							}
						}
					}
				case *ast.ValueSpec:
					if len(n.Names) == len(n.Values) {
						for i, id := range n.Names {
							hold(id, n.Values[i])
						}
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				var operands []ast.Expr
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if (n.Op == token.ADD || n.Op == token.SUB) && float(n) {
						operands = []ast.Expr{n.X, n.Y}
					}
				case *ast.AssignStmt:
					if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && float(n.Lhs[0]) {
						operands = []ast.Expr{n.Lhs[0], n.Rhs[0]}
					}
				}
				for _, op := range operands {
					if m := product(op); m != nil {
						report(m)
					} else if id, ok := bare(op).(*ast.Ident); ok && held[p.info.Uses[id]] != nil {
						report(held[p.info.Uses[id]])
					}
				}
				return true
			})
		}
	}
	return found
}

// bare strips the parentheses and unary signs around e: neither rounds, so
// neither keeps a product from fusing.
func bare(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.SUB && x.Op != token.ADD {
				return e
			}
			e = x.X
		default:
			return e
		}
	}
}

// TestFusionRule pins what fusableProducts flags: exactly the lines marked
// "fused" below.
func TestFusionRule(t *testing.T) {
	const src = `package p

var g = 2.0

func f(a, b, c float64, n int) float64 {
	x := a*b + c // fused
	y := c - (a * b) // fused
	y += -(a * b) // fused
	x -= a * b // fused
	z := float64(a*b) + c
	z += float64(a * b)
	t := a * b // fused
	u := float64(a * b)
	w := a * b
	v := a * g // fused
	v = v + c
	k := n*n + 1
	const q = 2.0*3.0 + 1
	x = x + t + u + c*2 // fused
	return x + y + z + float64(w*w) + float64(k) + q
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("internal", "p", "p.go"), src, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &goPackage{path: "hiway/internal/p", dir: filepath.Join("internal", "p"), files: []*ast.File{f}, info: newInfo()}
	if p.pkg, err = (&types.Config{Importer: importer.Default()}).Check(p.path, fset, p.files, p.info); err != nil {
		t.Fatal(err)
	}
	var got, want []int
	for _, pos := range fusableProducts(fset, map[string]*goPackage{p.dir: p}) {
		got = append(got, pos.Line)
	}
	for i, line := range strings.Split(src, "\n") {
		if strings.HasSuffix(line, "// fused") {
			want = append(want, i+1)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("flagged lines %v, want %v", got, want)
	}
	// Outside internal/ and cmd/ (bench/, examples/) nothing is flagged.
	if out := fusableProducts(fset, map[string]*goPackage{"bench": p}); len(out) != 0 {
		t.Fatalf("flagged outside internal/ and cmd/: %v", out)
	}
}
